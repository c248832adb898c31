import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coefficients_oracles

from volterra_smp.coefficients import (PROBLEMS, ControlPath, SelfTestError, StructuralTags,
                                      _scalar_problem, coeff_tables, horner, make_problem)
from volterra_smp.grids import TimeGrid

EVALUATORS = ("b", "sigma", "f", "b_x", "sigma_x", "f_x", "b_xx", "sigma_xx", "f_xx")


def _random_params(name, rng) -> dict:
    params = {}
    for key, par in inspect.signature(PROBLEMS[name]).parameters.items():
        if isinstance(par.default, tuple):
            params[key] = tuple(rng.uniform(-2.0, 2.0, rng.integers(1, 6)))
        else:
            params[key] = float(rng.uniform(-2.0, 2.0))
    return params


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 10 ** 6),
       n_steps=st.integers(2, 40))
def test_coeff_tables_equal_per_step_evaluation_bit_for_bit(name, seed, n_steps):
    rng = np.random.default_rng(seed)
    coeffs = make_problem(name, **_random_params(name, rng))
    grid = TimeGrid(float(rng.uniform(0.1, 3.0)), n_steps)
    u = ControlPath(rng.uniform(-2.0, 2.0, (n_steps + 1, coeffs.du)))
    x0 = np.zeros((1, coeffs.dim))
    degrees = coeffs.tags.state_degrees()
    for fn_name, coefs in zip(EVALUATORS, coeff_tables(coeffs, u, grid, EVALUATORS)):
        assert isinstance(coefs, tuple) and len(coefs) == degrees[fn_name] + 1, fn_name
        table = coefs[0]   # c_0 is the table at x = 0
        fn = getattr(coeffs, fn_name)
        loop = np.stack([fn(m * grid.dt, u.at(m), x0)[0] for m in range(n_steps + 1)])
        assert table.shape == loop.shape and table.tobytes() == loop.tobytes(), fn_name


def test_coeff_tables_refuse_a_degree_the_tags_leave_open(grid, lq):
    # the default tags fix f's degree alone; every name is checked, not the first
    u = ControlPath.constant(0.5, grid)
    with pytest.raises(ValueError, match="degree in x of b_x, .*'lq_linear_cost'"):
        coeff_tables(replace(lq, tags=StructuralTags()), u, grid, ("f", "b_x"))


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 10 ** 6),
       rows=st.integers(1, 40), u_form=st.sampled_from(["scalar", "du", "rows"]),
       t_per_row=st.booleans())
def test_evaluators_equal_the_broadcasting_wrappers_byte_for_byte(name, seed, rows, u_form,
                                                                  t_per_row):
    rng = np.random.default_rng(seed)
    params = _random_params(name, rng)
    lean, oracle = make_problem(name, **params), coefficients_oracles.make_problem(name, **params)
    x = rng.normal(size=(rows, 1)) * 10.0 ** rng.uniform(-3, 3)
    x[rng.random(rows) < 0.2] = -0.0
    u = {"scalar": float(rng.normal()), "du": rng.normal(size=lean.du),
         "rows": rng.normal(size=(rows, lean.du))}[u_form]
    t = rng.uniform(0.0, 2.0, rows) if t_per_row else float(rng.uniform(0.0, 2.0))
    for fn_name in EVALUATORS + ("h", "h_x", "h_xx"):
        args = (x,) if fn_name.startswith("h") else (t, u, x)
        got, want = getattr(lean, fn_name)(*args), getattr(oracle, fn_name)(*args)
        assert (got.shape, got.dtype) == (want.shape, want.dtype), fn_name
        assert got.tobytes() == want.tobytes(), fn_name


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 10 ** 6),
       n_steps=st.integers(2, 24), paths=st.integers(1, 12), random_params=st.booleans())
def test_taylor_tables_reproduce_the_degree_tagged_evaluators(name, seed, n_steps, paths,
                                                              random_params):
    # along a random control table and at random states, Horner over each
    # degree-tagged evaluator's Taylor tables is that evaluator within a few
    # ulps of the sample's largest Taylor term, and bit for bit on the
    # problems whose formulas read a * x + c: that is why their outputs keep
    # their bytes
    rng = np.random.default_rng(seed)
    coeffs = make_problem(name, **(_random_params(name, rng) if random_params else {}))
    grid = TimeGrid(float(rng.uniform(0.1, 3.0)), n_steps)
    u = ControlPath(rng.uniform(-2.0, 2.0, (n_steps + 1, coeffs.du)))
    x = rng.normal(size=(n_steps + 1) * paths) * 10.0 ** rng.uniform(-2, 2)
    t = np.repeat(np.arange(n_steps + 1) * grid.dt, paths)
    u_rows = np.repeat(u.values, paths, axis=0)
    degrees = coeffs.tags.state_degrees()
    assert set(degrees) <= set(EVALUATORS)
    for fn_name, table in zip(degrees, coeff_tables(coeffs, u, grid, degrees)):
        coefs = [np.repeat(c.reshape(-1), paths) for c in table]
        assert len(coefs) == degrees[fn_name] + 1
        got = horner(coefs, x, np.empty(x.shape))
        want = getattr(coeffs, fn_name)(t, u_rows, x[:, None]).reshape(-1)
        scale = max(float(np.max(sum(np.abs(c) * np.abs(x) ** j for j, c in enumerate(coefs)))),
                    float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * scale, fn_name
        if name in ("lq_linear_cost", "state_free_quadratic"):
            assert got.tobytes() == want.tobytes(), fn_name


def mis_tagged(case: str):
    """A scalar set whose evaluators agree with their derivatives but not with
    its tags: "b_x" is tagged linear_in_state with b = x + x^3, "b_xx" has a
    nonzero Hessian under linear_in_state, "b" is tagged state_free with
    b = x, "f_x" is tagged f_state_degree 1 with f = x^2, "f_xx" is a cubic
    f under the default degree 2, and "f" is a quadratic f whose constant
    f_xx is wrong, so its Taylor tables miss it."""
    zero = lambda t, u, x: 0.0
    b, b_x, b_xx = (lambda t, u, x: u + x + x ** 3, lambda t, u, x: 1.0 + 3.0 * x * x,
                    lambda t, u, x: 6.0 * x)
    f, f_x, f_xx = lambda t, u, x: u * u, zero, zero
    tags = StructuralTags(linear_in_state=True)
    if case == "b_xx":
        b, b_x, b_xx = lambda t, u, x: u + x, lambda t, u, x: 1.0, lambda t, u, x: 0.5
    elif case == "b":
        b, b_x, b_xx = lambda t, u, x: u + x, lambda t, u, x: 1.0, zero
        tags = StructuralTags(state_free=True)
    elif case == "f_x":
        b, b_x, b_xx = lambda t, u, x: u + x, lambda t, u, x: 1.0, zero
        f, f_x, f_xx = lambda t, u, x: x * x, lambda t, u, x: 2.0 * x, lambda t, u, x: 2.0
        tags = StructuralTags(linear_in_state=True, f_state_degree=1)
    elif case in ("f_xx", "f"):
        b, b_x, b_xx = lambda t, u, x: u + x, lambda t, u, x: 1.0, zero
        f, f_x, f_xx = ((lambda t, u, x: x ** 3, lambda t, u, x: 3.0 * x * x,
                         lambda t, u, x: 6.0 * x) if case == "f_xx" else
                        (lambda t, u, x: x * x, lambda t, u, x: 2.0 * x, lambda t, u, x: 5.0))
    return _scalar_problem(f"mis_tagged_{case}", b, lambda t, u, x: 0.2 + 0.0 * x, f,
                           lambda x: 0.0 * x, b_x, zero, f_x, lambda x: 0.0, b_xx, zero,
                           f_xx, lambda x: 0.0, (0.0, 1.0), tags, 1.0)


@pytest.mark.parametrize("case", ["b_x", "b_xx", "b", "f_x", "f_xx", "f"])
def test_self_test_fails_closed_on_wrong_tags(case):
    with pytest.raises(SelfTestError, match=f"tag self-test failed for {case}:"):
        mis_tagged(case).self_test()
