"""Problem coefficients, control paths and the bundled test problems.

A ``CoefficientSet`` packages the drift b, diffusion sigma, running cost f and
terminal cost h together with their first and second state derivatives and a
set of structural tags that the adjoint assemblers use to pick a solve path.
The bundled problems are coefficient arrays: ``polynomial_problem`` derives
every evaluator, derivative and tag from them.
All evaluators are vectorized over paths: ``t`` is a grid time, or one per
row, ``u`` has shape (du,) or (paths, du), ``x`` has shape (paths, n).  A
row need not be a path: ``coeff_tables`` stacks the grid times along it.

Stacked Hessians follow the convention out[p, i, j, k] = d^2 phi^i / dx_j dx_k,
so the quadratic form <phi_xx X, X> is einsum("pijk,pj,pk->pi").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import TimeGrid
from .rng import scalar_rng


class SelfTestError(ValueError):
    """A coefficient set whose evaluators disagree with their derivatives."""


@dataclass(frozen=True)
class StructuralTags:
    """Structure used to dispatch adjoint solve paths: derived from the arrays
    by ``polynomial_problem``, declared by a set built by hand."""

    linear_in_state: bool = False     # b_x, sigma_x independent of x; b_xx = sigma_xx = 0
    state_free: bool = False          # b, sigma independent of x entirely
    sigma_control_free: bool = False  # sigma independent of u
    f_state_degree: int = 2           # 0: x-free, 1: linear in x, 2: quadratic in x
    h_degree: int = 2                 # 0: constant, 1: linear terminal cost, 2: quadratic

    def state_degrees(self) -> dict:
        """Degree in x of each running evaluator whose degree these tags fix,
        name -> d, so that ``coeff_tables`` gives its exact Taylor
        coefficients in x along a control: b and sigma of degree 0 under
        ``state_free`` and 1 under ``linear_in_state``, with b_x, sigma_x,
        b_xx and sigma_xx of degree 0; f of degree ``f_state_degree`` (at
        most 2), f_x one less and f_xx 0."""
        degrees = {}
        if self.linear_in_state or self.state_free:
            d = 0 if self.state_free else 1
            degrees.update(b=d, sigma=d, b_x=0, sigma_x=0, b_xx=0, sigma_xx=0)
        if self.f_state_degree <= 2:
            d = max(self.f_state_degree, 0)
            degrees.update(f=d, f_x=max(d - 1, 0), f_xx=0)
        return degrees


@dataclass(frozen=True)
class ControlDomain:
    """Finite grid of admissible control points, shape (V, du)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2:
            raise ValueError("control grid must be (V, du)")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class CoefficientSet:
    dim: int
    du: int
    b: Callable
    sigma: Callable
    f: Callable
    h: Callable
    b_x: Callable
    sigma_x: Callable
    f_x: Callable
    h_x: Callable
    b_xx: Callable
    sigma_xx: Callable
    f_xx: Callable
    h_xx: Callable
    control_domain: ControlDomain
    tags: StructuralTags = field(default_factory=StructuralTags)
    kappa: float = 1.0
    name: str = "custom"

    def self_test(self) -> None:
        """Check the first-derivative evaluators against central finite
        differences at 16 random points (seed 7), relative tolerance 1e-6.
        Raises ``SelfTestError`` naming the evaluator."""
        n_points, rel_tol = 16, 1e-6
        rng = scalar_rng(7, tag=101)
        n, du = self.dim, self.du
        t = rng.uniform(0.0, 1.0)
        u = rng.normal(size=(n_points, du))
        x = rng.normal(size=(n_points, n))
        eps = 1e-5

        def fd_grad(fn):
            cols = []
            for j in range(n):
                dx = np.zeros((n_points, n))
                dx[:, j] = eps
                cols.append((fn(t, u, x + dx) - fn(t, u, x - dx)) / (2 * eps))
            stacked = np.stack(cols, axis=-1)  # (..., n) derivative axis last
            return stacked

        checks = [
            (fd_grad(self.b), self.b_x(t, u, x), "b_x"),
            (fd_grad(self.sigma), self.sigma_x(t, u, x), "sigma_x"),
            (fd_grad(self.f), self.f_x(t, u, x), "f_x"),
        ]
        hx_fd = []
        for j in range(n):
            dx = np.zeros((n_points, n))
            dx[:, j] = eps
            hx_fd.append((self.h(x + dx) - self.h(x - dx)) / (2 * eps))
        checks.append((np.stack(hx_fd, axis=-1), self.h_x(x), "h_x"))

        for approx, exact, label in checks:
            scale = np.maximum(np.max(np.abs(exact)), 1.0)
            err = np.max(np.abs(approx - exact)) / scale
            if err > rel_tol:
                raise SelfTestError(f"derivative self-test failed for {label}: "
                                    f"rel err {err:.3e}")


@dataclass(frozen=True)
class ControlPath:
    """Control table on the grid: (N+1, du) deterministic or (paths, N+1, du).

    Adapted per-path tables are legal when built from increments with index
    strictly below the step at which the value applies; the bundled problems
    only use deterministic tables.
    """

    values: np.ndarray
    deterministic: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if self.deterministic and v.ndim != 2:
            raise ValueError("deterministic control table must be (N+1, du)")
        if not self.deterministic and v.ndim != 3:
            raise ValueError("per-path control table must be (paths, N+1, du)")
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, value, grid: TimeGrid, du: int = 1) -> "ControlPath":
        val = np.broadcast_to(np.atleast_1d(np.asarray(value, dtype=float)), (du,))
        return cls(np.tile(val, (grid.n_steps + 1, 1)), deterministic=True)

    def at(self, m: int) -> np.ndarray:
        """Control at grid index m: (du,) or (paths, du)."""
        return self.values[m] if self.deterministic else self.values[:, m]

    @property
    def n_steps(self) -> int:
        return (self.values.shape[0] if self.deterministic else self.values.shape[1]) - 1


def coeff_tables(coeffs: CoefficientSet, controls, grid: TimeGrid, names) -> tuple:
    """Taylor tables in x along a deterministic control, one entry per name in
    ``names``: the tuple (c_0, ..., c_d) of that evaluator's coefficients, d
    its degree in x that the tags fix (``StructuralTags.state_degrees``), so
    degree 0 gives a 1-tuple.  c_j = (d^j phi / dx^j) / j! at x = 0, from the
    evaluator and its derivative evaluators, each in that evaluator's own
    shape with row m at (t_m, u_m); along a sequence of C controls, stacked
    on axis 1, (N+1, C) + that shape.  Each evaluator is one call, every row
    stacked on the path axis.  Raises ``ValueError`` naming an evaluator
    whose degree in x the tags leave open.
    """
    stacked = not isinstance(controls, ControlPath)
    us = controls if stacked else (controls,)
    if not all(u.deterministic for u in us):
        raise ValueError("deterministic solve paths need a deterministic reference control")
    degrees = coeffs.tags.state_degrees()
    for name in names:
        if name not in degrees:
            raise ValueError(f"the Taylor tables need the degree in x of {name}, "
                             f"which the tags of {coeffs.name!r} leave open")
    lead = (grid.n_steps + 1, len(us)) if stacked else (grid.n_steps + 1,)
    t = np.repeat(np.arange(grid.n_steps + 1) * grid.dt, len(us))
    u = np.stack([u.values for u in us], 1).reshape(t.size, -1)
    x0 = np.zeros((t.size, coeffs.dim))
    tables = {}

    def table(name):
        if name not in tables:
            val = getattr(coeffs, name)(t, u, x0)
            tables[name] = val.reshape(lead + val.shape[1:])
        return tables[name]
    return tuple(_taylor(name, degrees[name], table) for name in names)


def table_degrees(coeffs: CoefficientSet, controls) -> dict:
    """name -> degree in x of each evaluator that ``readers`` reads from its
    Taylor tables along ``controls``: every one whose degree the tags fix,
    for a scalar state along deterministic controls; {} elsewhere."""
    us = (controls,) if isinstance(controls, ControlPath) else controls
    if coeffs.dim != 1 or not all(u.deterministic for u in us):
        return {}
    return coeffs.tags.state_degrees()


def readers(coeffs: CoefficientSet, controls, grid: TimeGrid, names) -> tuple:
    """One step function ``read(m, x, out=None)`` per name in ``names``: that
    running evaluator at (t_m, u_m, x), into ``out`` when given.  ``controls``
    is a ``ControlPath`` or, for a scalar state, a sequence of C deterministic
    ones, control c for the states x[c] of x (C, P).  A scalar state's value
    takes the shape of x, a vector state's (x (rows, n)) the evaluator's.
    A name that ``table_degrees`` lists is read by ``horner`` from its Taylor
    rows (``coeff_tables``), (N+1, d+1) or, stacked, (N+1, d+1, C, 1), kept
    as the step function's ``taylor``; without ``out`` a degree-0 row comes
    back as is.  Any other name calls its evaluator, and ``taylor`` is None.
    """
    degrees = table_degrees(coeffs, controls)
    tabulated = [name for name in names if name in degrees]
    taylor = dict(zip(tabulated, coeff_tables(coeffs, controls, grid, tabulated)
                      if tabulated else ()))
    shape = (grid.n_steps + 1,) + (() if isinstance(controls, ControlPath) else (len(controls), 1))
    return tuple(_table_reader(np.stack([c.reshape(shape) for c in taylor[name]], 1))
                 if name in taylor else
                 _evaluator_reader(getattr(coeffs, name), controls, grid.dt, coeffs.dim == 1)
                 for name in names)


def _table_reader(rows: np.ndarray):
    def read(m, x, out=None):
        coefs = rows[m]
        if out is None:
            if len(coefs) == 1:
                return coefs[0]
            out = np.empty(x.shape)
        return horner(coefs, x, out)
    read.taylor = rows
    return read


def _evaluator_reader(fn, controls, dt: float, scalar: bool):
    stacked = not isinstance(controls, ControlPath)
    U = np.stack([u.values for u in controls], 1) if stacked else None    # (N+1, C, du)

    def read(m, x, out=None):
        u = (np.broadcast_to(U[m][:, None], x.shape + U.shape[2:]).reshape(x.size, -1)
             if stacked else controls.at(m))
        val = fn(m * dt, u, x.reshape(-1, 1)).reshape(x.shape) if scalar else fn(m * dt, u, x)
        if out is None:
            return val
        out[...] = val
        return out
    read.taylor = None
    return read


def _taylor(name: str, degree: int, at_zero) -> tuple:
    """(c_0, ..., c_degree) of evaluator ``name``: c_j is its j-th x-derivative
    evaluator's value ``at_zero(derivative name)`` over j!."""
    coefs = []
    for j in range(degree + 1):
        coefs.append(at_zero(name) / math.factorial(j))
        name += "x" if "_" in name else "_x"
    return tuple(coefs)


def horner(coefs, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_j coefs[j] x^j into ``out`` by Horner's rule, scalar state: each
    coefficient a scalar or an array that broadcasts against x.  Degree 1 is
    fl(c_1 x) + c_0, the operation order of a formula written ``a * x + c``,
    so such a formula and its Taylor tables agree bit for bit."""
    if len(coefs) == 1:
        np.copyto(out, coefs[0])
        return out
    np.multiply(coefs[-1], x, out=out)
    for j in range(len(coefs) - 2, -1, -1):
        out += coefs[j]
        if j:
            out *= x
    return out


def _scalar_problem(name, b, sigma, f, h, b_x, sigma_x, f_x, h_x, b_xx, sigma_xx,
                    f_xx, h_xx, u_grid, tags, kappa) -> CoefficientSet:
    """Wrap scalar (n = du = 1) formulas into vectorized evaluators.

    A formula sees x[:, 0] and u[..., 0] and broadcasts inside its own
    arithmetic; only a result of another shape (a constant) is broadcast to
    the rows, as a read-only view.  Results gain ``trailing`` unit axes.
    """

    def shaped(vals, x1, index):
        vals = np.asarray(vals, dtype=float)
        if vals.shape != x1.shape:
            vals = np.broadcast_to(vals, x1.shape)
        return vals[index]

    def running(fn, trailing):
        index = (slice(None),) + (None,) * trailing

        def wrapped(t, u, x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            u1 = np.asarray(u, dtype=float)
            return shaped(fn(t, u1[..., 0] if u1.ndim else u1, x1), x1, index)
        return wrapped

    def terminal(fn, trailing):
        index = (slice(None),) + (None,) * trailing

        def wrapped(x):
            x1 = np.asarray(x, dtype=float)[:, 0]
            return shaped(fn(x1), x1, index)
        return wrapped

    return CoefficientSet(
        dim=1, du=1,
        b=running(b, 1), sigma=running(sigma, 1), f=running(f, 0), h=terminal(h, 0),
        b_x=running(b_x, 2), sigma_x=running(sigma_x, 2), f_x=running(f_x, 1),
        h_x=terminal(h_x, 1), b_xx=running(b_xx, 3), sigma_xx=running(sigma_xx, 3),
        f_xx=running(f_xx, 2), h_xx=terminal(h_xx, 2),
        control_domain=ControlDomain(np.asarray(u_grid, dtype=float)[:, None]),
        tags=tags, kappa=kappa, name=name,
    )


def polynomial_problem(name, b, sigma, f, h, u_grid) -> CoefficientSet:
    """A scalar problem from coefficient arrays: ``b``, ``sigma`` and ``f`` as
    c[i][j], the coefficient of x^i u^j (rows may differ in length), and
    ``h`` as c[i], the coefficient of x^i.

    Every evaluator and its x-derivatives sum the (differentiated) array's
    nonzero monomials, the highest power of x first, each term computed as
    fl(...fl(c x) x ... u).  The tags read the arrays: ``state_free`` and
    ``linear_in_state`` when no power of x above 0, resp. 1, appears in b or
    sigma; ``sigma_control_free`` when sigma has no u term; ``f_state_degree``
    and ``h_degree`` are the highest power of x that appears (0 if none).
    ``kappa`` is the largest |b_x| and |sigma_x| at x = 0 over the control
    grid.
    """
    h = [[c] for c in h]
    derived = {}
    for label, c in (("b", b), ("sigma", sigma), ("f", f), ("h", h)):
        for suffix in ("", "_x", "_xx"):
            derived[label + suffix] = _monomial_sum(c)
            c = [[i * cij for cij in row] for i, row in enumerate(c)][1:]
    x_degree = max(_top_power(b, 0), _top_power(sigma, 0))
    tags = StructuralTags(linear_in_state=x_degree <= 1, state_free=x_degree == 0,
                          sigma_control_free=_top_power(sigma, 1) == 0,
                          f_state_degree=_top_power(f, 0), h_degree=_top_power(h, 0))
    u_pts = np.asarray(u_grid, dtype=float)
    kappa = max(float(np.max(np.abs(derived[key](0.0, u_pts, 0.0)), initial=0.0))
                for key in ("b_x", "sigma_x"))
    for key in ("h", "h_x", "h_xx"):
        derived[key] = functools.partial(derived[key], None, None)
    return _scalar_problem(name, u_grid=u_grid, tags=tags, kappa=kappa, **derived)


def _monomial_sum(c):
    """phi(t, u, x) = sum of c[i][j] x^i u^j over the nonzero entries, the
    highest power of x first; 0.0 when there is none."""
    terms = [(cij, i, j) for i in range(len(c) - 1, -1, -1)
             for j, cij in enumerate(c[i]) if cij != 0]

    def phi(t, u, x):
        total = 0.0
        for k, (term, i, j) in enumerate(terms):
            for factor in (x,) * i + (u,) * j:
                term = term * factor
            total = term if k == 0 else total + term
        return total
    return phi


def _top_power(c, axis: int) -> int:
    """The highest power of x (axis 0) or u (axis 1) with a nonzero entry."""
    return max(((i, j)[axis] for i, row in enumerate(c) for j, cij in enumerate(row)
                if cij != 0), default=0)


def lq_linear_cost(b1=0.5, b2=1.0, s1=0.3, s0=0.4, c1=0.6, r=2.5, ch=1.0,
                   u_grid=(-1.0, -0.5, 0.0, 0.5, 1.0)) -> CoefficientSet:
    """b = b1 x + b2 u, sigma = s1 x + s0, f = c1 x + r u^2 / 2, h = ch x.

    All adjoint data (h_x, f_x, b_x, sigma_x) are deterministic, so the
    adjoint fields are deterministic tables; the diffusion gap vanishes and
    the risk-adjustment term drops out of the inequality checks.
    """
    return polynomial_problem("lq_linear_cost", b=[[0.0, b2], [b1]], sigma=[[s0], [s1]],
                              f=[[0.0, 0.0, 0.5 * r], [c1]], h=[0.0, ch], u_grid=u_grid)


def state_free_quadratic(b0=0.1, b2=1.0, s0=0.3, s2=0.8, r=0.4, h2=1.2, h1=0.5,
                         u_grid=(-1.0, -0.5, 0.0, 0.5, 1.0)) -> CoefficientSet:
    """b = b0 + b2 u, sigma = s0 + s2 u, f = r u^2 / 2, h = h2 x^2 / 2 + h1 x.

    The first-order adjoint field is a closed-form affine function of the
    conditional mean of the terminal state; the second-order field is
    deterministic and nonzero, so the risk-adjustment term is exercised.
    """
    return polynomial_problem("state_free_quadratic", b=[[b0, b2]], sigma=[[s0, s2]],
                              f=[[0.0, 0.0, 0.5 * r]], h=[0.0, h1, 0.5 * h2], u_grid=u_grid)


def bilinear_lq(b1=0.3, b2=0.3, b3=0.1, s1=0.2, s2=0.9, s3=0.7,
                qx=0.6, r=0.3, h2=1.0, h1=0.4,
                u_grid=(-1.0, -0.5, 0.0, 0.5, 1.0)) -> CoefficientSet:
    """b = b1 x + (b2 + b3 x) u, sigma = s1 x + (s2 + s3 x) u,
    f = (qx x^2 + r u^2) / 2, h = h2 x^2 / 2 + h1 x.

    The interaction terms make the state derivatives control dependent
    (delta b_x, delta sigma_x nonzero under a spike), which activates the
    second-order variational process and the quadratic remainder orders.
    """
    return polynomial_problem("bilinear_lq", b=[[0.0, b2], [b1, b3]], sigma=[[0.0, s2], [s1, s3]],
                              f=[[0.0, 0.0, 0.5 * r], [], [0.5 * qx]], h=[0.0, h1, 0.5 * h2],
                              u_grid=u_grid)


def zero_problem(u_grid=(0.0,)) -> CoefficientSet:
    """All coefficients identically zero; every derived object vanishes."""
    return polynomial_problem("zero", b=[], sigma=[], f=[], h=[], u_grid=u_grid)


PROBLEMS = {
    "lq_linear_cost": lq_linear_cost,
    "state_free_quadratic": state_free_quadratic,
    "bilinear_lq": bilinear_lq,
    "zero": zero_problem,
}


def make_problem(name: str, **params) -> CoefficientSet:
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; available: {sorted(PROBLEMS)}")
    return PROBLEMS[name](**params)
