import inspect

import numpy as np
from hypothesis import given, settings, strategies as st

import coefficients_oracles

from volterra_smp.coefficients import PROBLEMS, ControlPath, coeff_tables, make_problem
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
    for fn_name, table in zip(EVALUATORS, coeff_tables(coeffs, u, grid, EVALUATORS)):
        fn = getattr(coeffs, fn_name)
        loop = np.stack([fn(m * grid.dt, u.at(m), x0)[0] for m in range(n_steps + 1)])
        assert table.shape == loop.shape and table.tobytes() == loop.tobytes(), fn_name


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
