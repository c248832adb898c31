import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import coefficients_oracles

from volterra_smp.bsee import assemble_adjoints, choose_solve_path
from volterra_smp.coefficients import (PROBLEMS, ControlPath, SelfTestError, StructuralTags,
                                      _scalar_problem, coeff_tables, horner, make_problem,
                                      polynomial_problem, readers)
from volterra_smp.grids import TimeGrid
from volterra_smp.harness import _node_recursion_residuals
from volterra_smp.kernels import DiscreteLaplaceKernel
from volterra_smp.maxprinciple import duality_residuals, duality_stats
from volterra_smp.simulate import sample_brownian, simulate_sve
from volterra_smp.variation import SpikeSpec

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


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["lq_linear_cost", "state_free_quadratic", "bilinear_lq"]),
       seed=st.integers(0, 10 ** 6), n_steps=st.integers(2, 24),
       n_controls=st.integers(1, 4), paths=st.integers(1, 9))
def test_readers_read_the_tables_of_each_control(name, seed, n_steps, n_controls, paths):
    # alone and stacked, a reader gives one coeff_tables + horner per control
    # bit for bit; that is the evaluator's value bit for bit where every
    # formula reads a * x + c, and within 4 ulps on bilinear_lq of its
    # evaluator at |u|, |x| (every default coefficient is positive, so that is
    # the sum of the monomials' magnitudes)
    rng = np.random.default_rng(seed)
    coeffs = make_problem(name)
    grid = TimeGrid(float(rng.uniform(0.1, 3.0)), n_steps)
    controls = [ControlPath(rng.uniform(-1.0, 1.0, (n_steps + 1, 1))) for _ in range(n_controls)]
    x = rng.normal(size=(n_steps + 1, n_controls, paths)) * 10.0 ** rng.uniform(-2, 2)
    stacked = readers(coeffs, controls, grid, EVALUATORS)
    for c, u in enumerate(controls):
        alone = readers(coeffs, u, grid, EVALUATORS)
        tables = coeff_tables(coeffs, u, grid, EVALUATORS)
        for fn_name, in_stack, read, coefs in zip(EVALUATORS, stacked, alone, tables):
            fn = getattr(coeffs, fn_name)
            for m in range(n_steps + 1):
                xm = x[m, c]
                want = horner([cj[m].reshape(()) for cj in coefs], xm, np.empty(paths))
                got = in_stack(m, x[m], np.empty((n_controls, paths)))[c]
                assert got.tobytes() == want.tobytes(), fn_name
                assert np.broadcast_to(read(m, xm), xm.shape).tobytes() == want.tobytes()
                value = fn(m * grid.dt, u.at(m), xm[:, None]).reshape(paths)
                if name == "bilinear_lq":
                    scale = fn(m * grid.dt, np.abs(u.at(m)), np.abs(xm)[:, None]).reshape(paths)
                    assert np.all(np.abs(want - value) <= 4 * np.spacing(scale)), fn_name
                else:
                    assert want.tobytes() == value.tobytes(), fn_name


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
    # the hand-written formulas give the same bytes in _scalar_problem as in
    # the oracle's broadcasting wrappers; the arrays give the same bytes on
    # lq_linear_cost and state_free_quadratic, the same values on zero (whose
    # formulas write -0.0 where the arrays add no term), and on bilinear_lq
    # b and sigma within 4 ulps of their terms, since b1 x + (b2 + b3 x) u
    # groups them otherwise
    rng = np.random.default_rng(seed)
    params = _random_params(name, rng)
    built = make_problem(name, **params)
    hand = coefficients_oracles.make_problem(name, **params)
    lean = coefficients_oracles.make_problem(name, wrap=_scalar_problem, **params)
    x = rng.normal(size=(rows, 1)) * 10.0 ** rng.uniform(-3, 3)
    x[rng.random(rows) < 0.2] = -0.0
    u = {"scalar": float(rng.normal()), "du": rng.normal(size=built.du),
         "rows": rng.normal(size=(rows, built.du))}[u_form]
    t = rng.uniform(0.0, 2.0, rows) if t_per_row else float(rng.uniform(0.0, 2.0))
    for fn_name in EVALUATORS + ("h", "h_x", "h_xx"):
        args = (x,) if fn_name.startswith("h") else (t, u, x)
        want = getattr(hand, fn_name)(*args)
        got, wrapped = getattr(built, fn_name)(*args), getattr(lean, fn_name)(*args)
        for arr in (got, wrapped):
            assert (arr.shape, arr.dtype) == (want.shape, want.dtype), fn_name
        assert wrapped.tobytes() == want.tobytes(), fn_name
        if name == "zero":
            assert np.array_equal(got, want), fn_name
        elif name == "bilinear_lq" and fn_name in ("b", "sigma"):
            c1, c2, c3 = (params[k] for k in (("b1", "b2", "b3") if fn_name == "b"
                                               else ("s1", "s2", "s3")))
            terms = np.abs(c1 * x) + np.abs(u) * (abs(c2) + np.abs(c3 * x))
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * terms), fn_name
        else:
            assert got.tobytes() == want.tobytes(), fn_name


# fields where the derived tags are tighter than the hand ones at default
# parameters; no reader of the tags sees the difference: every one reads
# linear_in_state or state_free together, and h_degree <= 1
TIGHTER_AT_DEFAULTS = {"state_free_quadratic": {"linear_in_state": True},
                       "zero": {"h_degree": 0}}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_derived_tags_and_kappa_equal_the_hand_ones_at_default_params(name):
    built, hand = make_problem(name), coefficients_oracles.make_problem(name)
    assert built.tags == replace(hand.tags, **TIGHTER_AT_DEFAULTS.get(name, {}))
    assert built.tags.state_degrees() == hand.tags.state_degrees()
    for lsmc in (False, True):
        assert (choose_solve_path(built.tags, lsmc, True)
                == choose_solve_path(hand.tags, lsmc, True))
    assert built.kappa == hand.kappa


def test_a_zero_parameter_tightens_the_derived_tags():
    # s2 = 0 leaves sigma = s0 free of u, and h2 = 0 leaves h linear, which
    # takes the deterministic solve path instead of the affine one
    built = make_problem("state_free_quadratic", s2=0.0)
    hand = coefficients_oracles.make_problem("state_free_quadratic", s2=0.0)
    assert built.tags.sigma_control_free and not hand.tags.sigma_control_free
    assert built.tags == replace(hand.tags, linear_in_state=True, sigma_control_free=True)
    built = make_problem("state_free_quadratic", h2=0.0)
    hand = coefficients_oracles.make_problem("state_free_quadratic", h2=0.0)
    assert (built.tags.h_degree, hand.tags.h_degree) == (1, 2)
    assert choose_solve_path(built.tags, False, True) == "deterministic"
    assert choose_solve_path(hand.tags, False, True) == "affine"


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
    # the derivative self-test passes: only the tag probes see a declared tag
    # that the evaluators break
    coeffs = mis_tagged(case)
    coeffs.self_test()
    with pytest.raises(SelfTestError, match=f"tag self-test failed for {case}:"):
        coefficients_oracles.tag_self_test(coeffs)


NEAR_1E6 = [("lq_linear_cost", {"b2": 1e6}), ("lq_linear_cost", {"s0": 1e6}),
            ("lq_linear_cost", {"r": 1e6}), ("bilinear_lq", {"s2": 1e6})]


@pytest.mark.parametrize("name, params", NEAR_1E6, ids=["b2", "s0", "r", "s2"])
def test_self_test_passes_correct_coefficients_near_1e6(name, params):
    # the difference quotient's rounding, about eps |f| / h = 2e-11 |f|, read
    # 3.5e-6 to 7.8e-6 against a bare 1e-6 here
    make_problem(name, **params).self_test()


@pytest.mark.parametrize("name, params", [("lq_linear_cost", {}), ("bilinear_lq", {})] + NEAR_1E6,
                         ids=["lq", "bilinear", "lq_b2", "lq_s0", "lq_r", "bilinear_s2"])
@pytest.mark.parametrize("label", ["b_x", "sigma_x", "f_x", "h_x"])
def test_self_test_still_sees_a_derivative_off_by_a_thousandth(name, params, label):
    coeffs = make_problem(name, **params)
    exact = getattr(coeffs, label)
    off = replace(coeffs, **{label: lambda *args: exact(*args) * (1 + 1e-3)})
    with pytest.raises(SelfTestError, match=f"derivative self-test failed for {label}:"):
        off.self_test()


def _array(x_degree: int, terminal: bool = False):
    """Coefficient arrays of x_degree + 1 rows, each of degree <= 2 in u (an
    empty row is zero), with some entries exactly zero."""
    entry = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
    row = entry if terminal else st.lists(entry, max_size=3)
    return st.lists(row, min_size=x_degree + 1, max_size=x_degree + 1)


@st.composite
def _problem_arrays(draw):
    """b, sigma, f, h, most drawn at degrees that admit the deterministic or
    the affine solve path (the affine one with an x^2 term in h); a zero
    entry may lower any other degree."""
    shape = draw(st.sampled_from(["deterministic", "affine", "any"]))
    state = 0 if shape == "affine" else 1
    h = draw(_array(1 if shape == "deterministic" else 2, terminal=True))
    if shape == "affine":
        h[-1] = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    return (draw(_array(state)), draw(_array(state)), draw(_array(2 if shape == "any" else 1)),
            h)


@settings(max_examples=60, deadline=None)
@given(arrays=_problem_arrays(), n_nodes=st.integers(1, 4), n_steps=st.integers(4, 16),
       seed=st.integers(0, 10 ** 6))
def test_random_arrays_keep_the_exact_identities(arrays, n_nodes, n_steps, seed):
    # the derived tags pass the tag probes and the derivatives the
    # self-test; lift equals direct; on the deterministic and affine solve
    # paths the first-order field meets its node recursion and both duality
    # identities hold
    coeffs = polynomial_problem("random", *arrays, u_grid=(-1.0, 0.0, 1.0))
    coefficients_oracles.tag_self_test(coeffs)
    coeffs.self_test()
    rng = np.random.default_rng(seed)
    kern = DiscreteLaplaceKernel(nodes=np.cumsum(rng.uniform(0.2, 8.0, n_nodes)),
                                 weights=rng.uniform(0.1, 1.0, n_nodes),
                                 mb=rng.uniform(0.1, 1.0, n_nodes),
                                 msigma=rng.uniform(0.1, 1.0, n_nodes))
    grid = TimeGrid(1.0, n_steps)
    e = sample_brownian(grid, 16, seed)
    u_hat = ControlPath(rng.uniform(-1.0, 1.0, n_steps + 1))
    xi = float(rng.uniform(-1.0, 1.0))
    x_hat = simulate_sve(coeffs, u_hat, kern, xi, e, mode="lift")
    x_direct = simulate_sve(coeffs, u_hat, kern, xi, e, mode="direct")
    assert np.max(np.abs(x_hat - x_direct)) <= 1e-10
    path = choose_solve_path(coeffs.tags, False, True)
    event(f"solve path {path}")
    if path not in ("deterministic", "affine"):
        return
    adj = assemble_adjoints(coeffs, u_hat, x_hat, kern, e)
    assert max(_node_recursion_residuals(adj).values()) <= 1e-10
    j0 = int(rng.integers(0, n_steps))
    spike = SpikeSpec(tau=j0 * grid.dt, eps=int(rng.integers(1, n_steps - j0 + 1)) * grid.dt,
                      v=ControlPath.constant(float(rng.uniform(-1.0, 1.0)), grid))
    res = duality_residuals(coeffs, spike, adj, e, xi=xi)
    assert duality_stats(res["first"])["exact_max"] <= 1e-8
    assert duality_stats(res["second"])["exact_max"] <= 1e-8
