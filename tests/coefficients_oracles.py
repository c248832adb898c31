"""Reference form of the scalar-problem evaluator wrappers (test-only oracle).

Each evaluator broadcasts u to a (paths, du) table before the formula and
broadcasts every result to the rows after it, as the wrappers were first
written.  ``coefficients._scalar_problem`` slices x and u and lets the formula
broadcast; the tests compare shape, dtype and bytes of the two.
"""

import numpy as np

from volterra_smp import coefficients


def _aspaths(arr, paths: int) -> np.ndarray:
    out = np.atleast_1d(np.asarray(arr, dtype=float))
    if out.ndim == 1:
        out = np.broadcast_to(out, (paths, out.shape[0]))
    return out


def _scalar_problem(name, b, sigma, f, h, b_x, sigma_x, f_x, h_x, b_xx, sigma_xx,
                    f_xx, h_xx, u_grid, tags, kappa):
    def vec1(fn):
        def wrapped(t, u, x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            u1 = _aspaths(u, x1.shape[0])[:, 0]
            vals = np.broadcast_to(np.asarray(fn(t, u1, x1), dtype=float), x1.shape)
            return vals[:, None]
        return wrapped

    def vec0(fn):
        def wrapped(t, u, x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            u1 = _aspaths(u, x1.shape[0])[:, 0]
            return np.broadcast_to(np.asarray(fn(t, u1, x1), dtype=float), x1.shape).copy()
        return wrapped

    def mat(fn):
        def wrapped(t, u, x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            u1 = _aspaths(u, x1.shape[0])[:, 0]
            vals = np.broadcast_to(np.asarray(fn(t, u1, x1), dtype=float), x1.shape)
            return vals[:, None, None]
        return wrapped

    def hess(fn):
        def wrapped(t, u, x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            u1 = _aspaths(u, x1.shape[0])[:, 0]
            vals = np.broadcast_to(np.asarray(fn(t, u1, x1), dtype=float), x1.shape)
            return vals[:, None, None, None]
        return wrapped

    def hterm(fn):
        def wrapped(x):
            return np.asarray(fn(np.asarray(x, dtype=float)[:, 0]), dtype=float)
        return wrapped

    def hterm_vec(fn):
        def wrapped(x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            return np.broadcast_to(np.asarray(fn(x1), dtype=float), x1.shape)[:, None]
        return wrapped

    def hterm_mat(fn):
        def wrapped(x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            return np.broadcast_to(np.asarray(fn(x1), dtype=float), x1.shape)[:, None, None]
        return wrapped

    return coefficients.CoefficientSet(
        dim=1, du=1,
        b=vec1(b), sigma=vec1(sigma), f=vec0(f), h=hterm(h),
        b_x=mat(b_x), sigma_x=mat(sigma_x), f_x=vec1(f_x), h_x=hterm_vec(h_x),
        b_xx=hess(b_xx), sigma_xx=hess(sigma_xx), f_xx=mat(f_xx), h_xx=hterm_mat(h_xx),
        control_domain=coefficients.ControlDomain(np.asarray(u_grid, dtype=float)[:, None]),
        tags=tags, kappa=kappa, name=name,
    )


def make_problem(name: str, **params):
    """``coefficients.make_problem`` with the problem's formulas in these wrappers."""
    wrap = coefficients._scalar_problem
    coefficients._scalar_problem = _scalar_problem
    try:
        return coefficients.make_problem(name, **params)
    finally:
        coefficients._scalar_problem = wrap
