import inspect

import numpy as np
from hypothesis import given, settings, strategies as st

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
