"""Reference forms of the bundled problems (test-only oracle).

``HAND`` keeps the four problems as they were first written: a formula for
each evaluator and each of its x-derivatives, the structural tags and kappa
declared by hand.  ``make_problem`` wraps them in ``_scalar_problem`` below,
which broadcasts u to a (paths, du) table before the formula and every result
to the rows after it, or in the wrapper it is given.  ``tag_self_test`` holds
the probes that checked declared tags against the evaluators.
"""

import numpy as np

from volterra_smp import coefficients
from volterra_smp.coefficients import SelfTestError, StructuralTags
from volterra_smp.rng import scalar_rng


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
            x1 = np.asarray(x, dtype=float)[:, 0]
            return np.broadcast_to(np.asarray(fn(x1), dtype=float), x1.shape)
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


def lq_linear_cost(b1=0.5, b2=1.0, s1=0.3, s0=0.4, c1=0.6, r=2.5, ch=1.0,
                   u_grid=(-1.0, -0.5, 0.0, 0.5, 1.0)) -> dict:
    return dict(
        b=lambda t, u, x: b1 * x + b2 * u,
        sigma=lambda t, u, x: s1 * x + s0,
        f=lambda t, u, x: c1 * x + 0.5 * r * u * u,
        h=lambda x: ch * x,
        b_x=lambda t, u, x: b1, sigma_x=lambda t, u, x: s1,
        f_x=lambda t, u, x: c1, h_x=lambda x: ch,
        b_xx=lambda t, u, x: 0.0, sigma_xx=lambda t, u, x: 0.0,
        f_xx=lambda t, u, x: 0.0, h_xx=lambda x: 0.0,
        u_grid=u_grid,
        tags=StructuralTags(linear_in_state=True, sigma_control_free=True,
                            f_state_degree=1, h_degree=1),
        kappa=max(abs(b1), abs(s1)),
    )


def state_free_quadratic(b0=0.1, b2=1.0, s0=0.3, s2=0.8, r=0.4, h2=1.2, h1=0.5,
                         u_grid=(-1.0, -0.5, 0.0, 0.5, 1.0)) -> dict:
    return dict(
        b=lambda t, u, x: b0 + b2 * u + 0.0 * x,
        sigma=lambda t, u, x: s0 + s2 * u + 0.0 * x,
        f=lambda t, u, x: 0.5 * r * u * u + 0.0 * x,
        h=lambda x: 0.5 * h2 * x * x + h1 * x,
        b_x=lambda t, u, x: 0.0, sigma_x=lambda t, u, x: 0.0,
        f_x=lambda t, u, x: 0.0, h_x=lambda x: h2 * x + h1,
        b_xx=lambda t, u, x: 0.0, sigma_xx=lambda t, u, x: 0.0,
        f_xx=lambda t, u, x: 0.0, h_xx=lambda x: h2,
        u_grid=u_grid,
        tags=StructuralTags(state_free=True, f_state_degree=0, h_degree=2),
        kappa=0.0,
    )


def bilinear_lq(b1=0.3, b2=0.3, b3=0.1, s1=0.2, s2=0.9, s3=0.7,
                qx=0.6, r=0.3, h2=1.0, h1=0.4,
                u_grid=(-1.0, -0.5, 0.0, 0.5, 1.0)) -> dict:
    return dict(
        b=lambda t, u, x: b1 * x + (b2 + b3 * x) * u,
        sigma=lambda t, u, x: s1 * x + (s2 + s3 * x) * u,
        f=lambda t, u, x: 0.5 * (qx * x * x + r * u * u),
        h=lambda x: 0.5 * h2 * x * x + h1 * x,
        b_x=lambda t, u, x: b1 + b3 * u, sigma_x=lambda t, u, x: s1 + s3 * u,
        f_x=lambda t, u, x: qx * x, h_x=lambda x: h2 * x + h1,
        b_xx=lambda t, u, x: 0.0, sigma_xx=lambda t, u, x: 0.0,
        f_xx=lambda t, u, x: qx, h_xx=lambda x: h2,
        u_grid=u_grid,
        tags=StructuralTags(linear_in_state=True, f_state_degree=2, h_degree=2),
        kappa=max(abs(b1) + abs(b3), abs(s1) + abs(s3)),
    )


def zero_problem(u_grid=(0.0,)) -> dict:
    return dict(
        b=lambda t, u, x: 0.0 * x, sigma=lambda t, u, x: 0.0 * x,
        f=lambda t, u, x: 0.0 * x, h=lambda x: 0.0 * x,
        b_x=lambda t, u, x: 0.0, sigma_x=lambda t, u, x: 0.0,
        f_x=lambda t, u, x: 0.0, h_x=lambda x: 0.0,
        b_xx=lambda t, u, x: 0.0, sigma_xx=lambda t, u, x: 0.0,
        f_xx=lambda t, u, x: 0.0, h_xx=lambda x: 0.0,
        u_grid=u_grid,
        tags=StructuralTags(linear_in_state=True, state_free=True, sigma_control_free=True,
                            f_state_degree=0, h_degree=1),
        kappa=0.0,
    )


HAND = {
    "lq_linear_cost": lq_linear_cost,
    "state_free_quadratic": state_free_quadratic,
    "bilinear_lq": bilinear_lq,
    "zero": zero_problem,
}


def make_problem(name: str, wrap=_scalar_problem, **params):
    """The hand-written problem ``name`` in the broadcasting wrappers, or in ``wrap``."""
    return wrap(name, **HAND[name](**params))


def tag_self_test(coeffs) -> None:
    """Check the tags against the evaluators at 16 random points (seed 7),
    relative tolerance 1e-6: sigma takes one value at two different controls
    under ``sigma_control_free``, each evaluator of degree 0 in
    ``StructuralTags.state_degrees`` takes one value at two different states,
    b_xx and sigma_xx vanish under ``linear_in_state`` (or ``state_free``),
    and, for scalar state, each evaluator of degree 1 or 2 equals its Taylor
    polynomial at x = 0.  Raises ``SelfTestError`` naming the evaluator."""
    n_points, rel_tol = 16, 1e-6
    rng = scalar_rng(7, tag=101)
    n, du = coeffs.dim, coeffs.du
    t = rng.uniform(0.0, 1.0)
    u = rng.normal(size=(n_points, du))
    x = rng.normal(size=(n_points, n))
    degrees = coeffs.tags.state_degrees()
    x_far = x + rng.normal(size=x.shape) + 1.0
    if coeffs.tags.sigma_control_free:
        here = coeffs.sigma(t, u, x)
        there = coeffs.sigma(t, u + rng.normal(size=u.shape) + 1.0, x)
        err = np.max(np.abs(here - there)) / np.maximum(np.max(np.abs(here)), 1.0)
        if err > rel_tol:
            raise SelfTestError(f"tag self-test failed for sigma: the tags make it "
                                f"control-free, but it moves with u (rel {err:.3e})")
    for label in [name for name, d in degrees.items() if d == 0]:
        fn = getattr(coeffs, label)
        here, there = fn(t, u, x), fn(t, u, x_far)
        err = np.max(np.abs(here - there)) / np.maximum(np.max(np.abs(here)), 1.0)
        if err > rel_tol:
            raise SelfTestError(f"tag self-test failed for {label}: the tags make it "
                                f"state-free, but it moves with x (rel {err:.3e})")
        if label in ("b_xx", "sigma_xx") and np.max(np.abs(here)) > rel_tol:
            raise SelfTestError(f"tag self-test failed for {label}: the tags make it "
                                f"vanish, but it reads {np.max(np.abs(here)):.3e}")
    if n != 1:   # Taylor tables in x are read for scalar state only
        return
    x0 = np.zeros_like(x)
    for label, d in degrees.items():
        if d == 0:
            continue
        coefs = coefficients._taylor(label, d,
                                     lambda name: getattr(coeffs, name)(t, u, x0).reshape(-1))
        here = getattr(coeffs, label)(t, u, x).reshape(-1)
        err = (np.max(np.abs(coefficients.horner(coefs, x[:, 0], np.empty(n_points)) - here))
               / np.maximum(np.max(np.abs(here)), 1.0))
        if err > rel_tol:
            raise SelfTestError(f"tag self-test failed for {label}: the tags make it of "
                                f"degree {d} in x, but its Taylor polynomial at x = 0 "
                                f"misses it (rel {err:.3e})")
