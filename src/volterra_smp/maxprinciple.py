"""Hamiltonian checks: duality residuals, cost-expansion representation and
the variational inequality of the necessary optimality condition.

Duality residuals come in two flavours.  The *exact* residual implements the
discrete product-rule expansion of <p_T, Y_T> against the solved backward
recursions; it vanishes pathwise (machine precision) whenever solver and
forward recursions are consistent, and is the quantity held to the 1e-8
deterministic tolerances.  The *display* residual keeps only the terms of
the expectation-level identity (conditionally centered terms dropped,
dW^2 -> dt), so it is a mean-zero Monte Carlo statistic whose standard error
shrinks like 1/sqrt(paths).

``duality_residuals`` runs one spike co-simulation with one observer that
accumulates both orders and the adjoint representation of J12, and returns
per-path vectors.  A path's bits do not depend on how many paths run with it,
so ``duality_stats`` takes the statistics of any smaller ensemble drawn with
the same seed over a prefix of those vectors.

Backward integrands are evaluated left-point through the discounted fields
p~_m = E_m[e^{-theta dt} p_{m+1}] (and the pair analogue), which is the exact
object produced by the discrete product rule.

The variational inequality, its classical reference and the argmax control
read b, sigma and f from their Taylor tables in x along each control
(``gap_tables``), so a gap that does not depend on x reads no state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsee import AdjointSolution
from .coefficients import CoefficientSet, ControlPath, coeff_tables
from .grids import TimeGrid
from .kernels import sweep_factors
from .simulate import BrownianEnsemble
from .stats import mc_mean_se, mc_mean_se_rows
from .variation import SpikeSpec, _spike_cosimulation


def hamiltonian(coeffs: CoefficientSet, t: float, u, x, p, q) -> np.ndarray:
    """<p, b> + <q, sigma> - f, vectorized over paths."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.broadcast_to(np.asarray(p, dtype=float), x.shape)
    q = np.broadcast_to(np.asarray(q, dtype=float), x.shape)
    return _hamiltonian_of(p, q, coeffs.b(t, u, x), coeffs.sigma(t, u, x), coeffs.f(t, u, x))


def _hamiltonian_of(p, q, b, sigma, f) -> np.ndarray:
    """<p, b> + <q, sigma> - f over the last axis, from evaluated coefficients."""
    return np.sum(p * b, axis=-1) + np.sum(q * sigma, axis=-1) - f


@dataclass
class _DualityAccumulator:
    """Streams the discrete product-rule expansions along one variational
    co-simulation: of the mu-aggregated first-order pairing <p, Y^{12}>
    (row 0 of ``rhs_exact``/``rhs_display``), of the mu x mu pair-field
    pairing <P Y^1, Y^1> when the pair field is solved (row 1, else zero),
    and the spike integral of the adjoint representation of J12.

    The adjoint contractions are per-step tables built once, applied to the
    lift states in the slab's (K, P8) layout.  Pair terms whose tables vanish
    identically do not run, so they stay exact zeros; ``pair_terms`` names
    what ran: "none", "linear" or "quadratic" (also Y^1' WG Y^1).
    """

    adj: AdjointSolution
    ens: BrownianEnsemble
    rhs_exact: np.ndarray = None
    rhs_display: np.ndarray = None
    spike_adjoint: np.ndarray = None
    pair_terms: str = "none"

    def __post_init__(self):
        paths, N, dt = self.ens.n_paths, self.ens.grid.n_steps, self.ens.grid.dt
        self.rhs_exact = np.zeros((2, paths))
        self.rhs_display = np.zeros((2, paths))
        self.spike_adjoint = np.zeros(paths)
        k, first, second = self.adj.kernel, self.adj.first, self.adj.second
        w, (dec, om) = k.weights, sweep_factors(k.nodes, dt)
        F = np.stack([k.mb[:, 0, 0], k.msigma[:, 0, 0]])    # (2, K): M_b, M_sigma
        wF = w * F

        def mu(tab):   # (N, K) table -> (2, N): mu[M_b^T tab], mu[M_sigma^T tab]
            return np.sum(wF[:, None] * tab, axis=-1)

        Q0 = first.Q0[:N, :, 0]
        # step m's functionals of Y12: -mu[omega g_m .] and mu[q_m .], (N, 2, K)
        self._V = np.stack([-(w * om) * first.G0[:N, :, 0], w * Q0], 1)
        self._A0 = mu(dec * first.P0[1:, :, 0])
        self._Aq = mu(Q0)
        self._A1 = None if first.P1 is None else mu(dec * first.P1[1:, :, 0])
        if second is None:
            return
        P, G = second.P[1:, :, :, 0, 0], second.G[:N, :, :, 0, 0]
        self.pair_terms = "quadratic" if np.any(G) else "linear" if np.any(P) else "none"
        if self.pair_terms == "none":
            return
        ww = w[:, None] * w[None, :]
        dec2, om2 = sweep_factors(k.pair_rates, dt)
        # WPt_m = ww e^{-varpi dt} P_{m+1} is symmetric, so F WPt_m reads (WPt_m Y1) F^T
        # off Y1 as two functionals, (N, 2, K)
        self._U = F @ (ww * (dec2 * P))
        self._S = (self._U @ F.T)[:, [0, 0, 1], [0, 1, 1]]   # (N, 3): Pbb, Pbs, Pss
        if self.pair_terms == "quadratic":
            self._WG = ww * (om2 * G)

    def __call__(self, m: int, Y1: np.ndarray, Y2: np.ndarray, forcings: tuple, cv: dict):
        dt, P = self.ens.grid.dt, self.ens.n_paths
        Fb1, Fs1, Fb2, Fs2 = forcings
        Fb, Fs = Fb1 + Fb2, Fs1 + Fs2
        dW = self.ens.dW[:, m]
        gen_term, qY = (self._V[m] @ (Y1 + Y2))[:, :P]   # columns past P are padding
        (ab, as_), (qb, qs) = self._A0[:, m], self._Aq[:, m]
        if self._A1 is not None:
            Zm = self.adj.first.Z.values[:, m]
            ab = ab + self._A1[0, m] * Zm
            as_ = as_ + self._A1[1, m] * Zm

        self.rhs_display[0] += gen_term + dt * (ab * Fb + qs * Fs)
        self.rhs_exact[0] += (gen_term + qY * dW + dt * ab * Fb + as_ * Fs * dW
                              + qb * Fb * dt * dW + qs * Fs * dW * dW)

        Pss = 0.0                            # mu x mu [Ms^T P~_m Ms]: the risk term
        if self.pair_terms != "none":
            ub, us = (self._U[m] @ Y1)[:, :P]
            Pbb, Pbs, Pss = self._S[m]
            quad = 0.0
            if self.pair_terms == "quadratic":
                quad = np.einsum("ip,ip->p", self._WG[m] @ Y1, Y1)[:P]
            cross_b = 2.0 * ub * Fb1             # symmetric field: both sides equal
            cross_s = 2.0 * us * Fs1
            self.rhs_display[1] += -quad + dt * (cross_b + Pss * Fs1 * Fs1)
            self.rhs_exact[1] += (-quad + dt * cross_b + cross_s * dW
                                  + Pbb * Fb1 * Fb1 * dt * dt + 2.0 * Pbs * Fb1 * Fs1 * dt * dW
                                  + Pss * Fs1 * Fs1 * dW * dW)

        if cv:
            db, ds, df = cv["db"], cv["ds"], cv["df"]
            self.spike_adjoint += dt * (ab * db + qs * ds - df + 0.5 * Pss * ds * ds)


def duality_residuals(coeffs: CoefficientSet, spike: SpikeSpec, adj: AdjointSolution,
                      ens: BrownianEnsemble, xi=0.0) -> dict:
    """Both duality identities and the adjoint representation of J12 from one
    spike co-simulation.

    Per path: under "first", the pairing ``lhs`` = -h_x(X_T) X^{12}_T and its
    ``exact`` and ``display`` residuals against the expansion; under "second"
    (only when ``adj.second`` is solved) the same for -h_xx(X_T) (X^1_T)^2,
    with h_x and h_xx at the co-simulated reference state X_T;
    ``spike_adjoint``, the spike integral of the Hamiltonian/risk terms on the
    adjoint contractions (minus its mean represents ``bundle.j12()`` up to
    terms of higher order than eps); the variation ``bundle``; and
    ``pair_terms``, which pair-field terms ran (see ``_DualityAccumulator``).
    Every vector's first n entries are those of the same call on
    ``ens.first_paths(n)``, so ``duality_stats`` over a prefix is the
    statistic of the smaller ensemble.
    """
    acc = _DualityAccumulator(adj=adj, ens=ens)
    bundle = _spike_cosimulation(coeffs, adj.kernel, adj.u_hat, [spike], xi, ens,
                                 observer=acc)[0]
    xT = bundle.terminal["Xhat_T"][:, None]
    lhs = {"first": -coeffs.h_x(xT)[:, 0] * bundle.terminal["X12_T"]}
    if adj.second is not None:
        X1T = bundle.terminal["X1_T"]
        lhs["second"] = -coeffs.h_xx(xT)[:, 0, 0] * X1T * X1T
    out = {order: {"lhs": v, "exact": v - acc.rhs_exact[i], "display": v - acc.rhs_display[i]}
           for i, (order, v) in enumerate(lhs.items())}
    return {**out, "spike_adjoint": acc.spike_adjoint, "bundle": bundle,
            "pair_terms": acc.pair_terms}


def duality_stats(order: dict, n_paths: int | None = None) -> dict:
    """Statistics of one order of ``duality_residuals`` over its first
    ``n_paths`` paths (all by default): the largest exact residual relative to
    ``scale`` = max(1, max |lhs|), and the display residual's mean and
    standard error."""
    lhs, exact, display = (order[key][:n_paths] for key in ("lhs", "exact", "display"))
    mean, se = mc_mean_se(display)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return {"exact_max": float(np.max(np.abs(exact))) / scale,
            "display_mean": mean, "display_se": se, "scale": scale}


# ---------------------------------------------------------------------------
# variational inequality
# ---------------------------------------------------------------------------

@dataclass
class MPReport:
    rows: list                 # (t, v, gap_mean, gap_se, passed)
    min_gap: float
    min_location: tuple        # (t, v)
    passed: bool
    deterministic: bool
    tol_margin: float
    max_quadratic_term: float = 0.0
    state_degree: int = 0      # highest power of x the gap read; 0: it read no state
    per_path: bool = False     # the gap took one value per path


_H_NAMES = ("b", "sigma", "f")


def _control_points(u_grid) -> np.ndarray:
    """Control points as (n_v, du) rows."""
    u_pts = np.atleast_2d(np.asarray(u_grid, dtype=float))
    return u_pts.T if u_pts.shape[0] == 1 and u_pts.shape[1] > 1 else u_pts


@dataclass(frozen=True)
class GapTables:
    """The Taylor coefficients in x of b(u_hat) - b(v), sigma(u_hat) - sigma(v)
    and f(u_hat) - f(v), (N, n_v) + the evaluator's shape each: steps 0..N-1
    on axis 0, the control points ``u_pts`` on axis 1.  Each tuple ends at
    its last degree with a nonzero coefficient (or at c_0)."""

    u_pts: np.ndarray          # (n_v, du)
    db: tuple
    dsigma: tuple
    df: tuple

    @property
    def state_degree(self) -> int:
        """The highest power of x the gap reads; 0 where it reads no state."""
        return max(len(self.db), len(self.dsigma), len(self.df)) - 1


def gap_tables(coeffs: CoefficientSet, u_hat: ControlPath, u_grid,
               grid: TimeGrid) -> GapTables:
    """``GapTables`` between a deterministic control ``u_hat`` and each point
    of ``u_grid``, from one ``coeff_tables`` call along u_hat and each
    constant control point, stacked."""
    u_pts = _control_points(u_grid)
    N = grid.n_steps
    tabs = coeff_tables(coeffs, [u_hat] + [ControlPath.constant(v, grid, coeffs.du)
                                           for v in u_pts], grid, _H_NAMES)

    def differences(coefs):
        d = [c[:N, :1] - c[:N, 1:] for c in coefs]
        while len(d) > 1 and not np.any(d[-1]):
            d.pop()
        return tuple(d)
    return GapTables(u_pts, *map(differences, tabs))


def _taylor_at(coefs, x: np.ndarray) -> np.ndarray:
    """sum_j coefs[j] x^j by Horner's rule at a block's states x (B, 1, P, n):
    each step contracts the running sum's last axis with x.  For scalar state
    this is the arithmetic of ``coefficients.horner``."""
    out = coefs[-1]
    for c in coefs[-2::-1]:
        xs = x.reshape(x.shape[:3] + (1,) * (out.ndim - 4) + x.shape[3:])
        out = np.sum(out * xs, axis=-1) + c
    return out


def _gap_stats(tabs: GapTables, contractions, x_hat: np.ndarray | None,
               ab_paths: int) -> tuple:
    """Mean and SE over paths of the gap H(u_hat) - H(v) - 1/2 <R dsigma, dsigma>
    at every (step m, control point i), row m * n_v + i; the largest spread of
    one cell over its paths; the largest |1/2 <R dsigma, dsigma>|.

    ``contractions(ms)`` gives (Ab, Aq, R) at the steps ``ms``: Ab (B, n), or
    (B, ab_paths, n) when it takes one value per path, Aq (B, n), R (B, n, n).
    A difference of degree 0 is one value per cell, so where all of them are
    and Ab is deterministic, the gap of a cell is one number: its mean, with
    SE and spread 0.  Else the terms that read x are evaluated on ``x_hat``
    (paths, N+1, n) in blocks of steps whose arrays stay near 512 KB: larger
    arrays fall out of the cache and run slower than one step at a time.
    """
    degree = tabs.state_degree
    if degree and x_hat is None:
        raise ValueError(f"the gap is of degree {degree} in x here, so it needs the state x_hat")
    (N, n_v), n = tabs.db[0].shape[:2], tabs.db[0].shape[-1]
    paths = x_hat.shape[0] if degree else ab_paths
    block = max(1, 2 ** 16 // ((n_v + 1) * paths * n))
    means, ses = [], []
    spread = max_quad = 0.0
    for m0 in range(0, N, block):
        ms = np.arange(m0, min(m0 + block, N))
        B = ms.size
        x = x_hat[:, ms].swapaxes(0, 1)[:, None] if degree else None      # (B, 1, P, n)

        def at(coefs):     # (B, n_v, 1 or P) + the evaluator's shape
            coefs = [c[ms][:, :, None] for c in coefs]
            return coefs[0] if len(coefs) == 1 else _taylor_at(coefs, x)
        db, ds, df = at(tabs.db), at(tabs.dsigma), at(tabs.df)
        Ab, Aq, R = contractions(ms)
        quad = 0.5 * np.einsum("...a,...ab,...b->...", ds, R[:, None, None], ds)
        gaps = (np.sum(Ab.reshape(B, 1, -1, n) * db, axis=-1)
                + np.sum(Aq[:, None, None] * ds, axis=-1) - df - quad)
        max_quad = max(max_quad, float(np.max(np.abs(quad))))
        spread = max(spread, float(np.max(np.max(gaps, axis=2) - np.min(gaps, axis=2))))
        block_means, block_ses = mc_mean_se_rows(gaps.reshape(B * n_v, -1))
        means.append(block_means)
        ses.append(block_ses)
    return np.concatenate(means), np.concatenate(ses), spread, max_quad


def check_variational_inequality(coeffs: CoefficientSet, u_hat: ControlPath,
                                 adjoints: AdjointSolution, u_grid: np.ndarray,
                                 ens: BrownianEnsemble, x_hat: np.ndarray | None = None,
                                 tables: GapTables | None = None) -> MPReport:
    """Minimum over (t, v) of H-hat(u_hat_t) - H-hat(v).

    The gaps come from ``gap_tables`` (``tables``, else built here) along
    the deterministic control u_hat; the reference state ``x_hat`` is read
    only where they depend on x (``GapTables.state_degree`` > 0) and may be
    None elsewhere.
    Deterministic case (path spread below 1e-12): PASS iff min >= -1e-8;
    stochastic case: PASS iff min >= -3 SE at the minimizing cell.  The
    report's ``tol_margin`` records the bound the verdict used.
    Grid times exclude t = T.
    """
    grid = ens.grid
    N = grid.n_steps
    tabs = gap_tables(coeffs, u_hat, u_grid, grid) if tables is None else tables
    u_pts = tabs.u_pts
    n_v = u_pts.shape[0]

    def contractions(ms):
        return (*adjoints.first_contractions_at(ms), adjoints.Rss[ms])
    ab_paths = 1 if adjoints.Ab1 is None else ens.n_paths
    means, ses, spread, max_quad = _gap_stats(tabs, contractions, x_hat, ab_paths)

    rows = list(zip(np.repeat(np.arange(N) * grid.dt, n_v).tolist(),
                    np.tile(u_pts[:, 0], N).tolist(), means.tolist(), ses.tolist()))
    min_gap = np.inf
    min_loc = (0.0, None)
    min_se = 0.0
    for t, v, gmean, gse in rows:
        if gmean < min_gap:
            min_gap, min_loc, min_se = gmean, (t, v), gse
    deterministic = spread < 1e-12
    margin = 1e-8 if deterministic else 3.0 * min_se
    passed = min_gap >= -margin
    rows = [(t, v, g, s, g >= -(1e-8 if deterministic else 3.0 * max(s, 0.0)))
            for (t, v, g, s) in rows]
    return MPReport(rows=rows, min_gap=float(min_gap), min_location=min_loc,
                    passed=bool(passed), deterministic=deterministic, tol_margin=margin,
                    max_quadratic_term=max_quad, state_degree=tabs.state_degree,
                    per_path=bool(tabs.state_degree) or ab_paths > 1)


def construct_argmax_control(coeffs: CoefficientSet, adjoints: AdjointSolution,
                             grid: TimeGrid) -> ControlPath:
    """Pointwise maximizer of the risk-adjusted Hamiltonian over the control grid.

    Valid when the control-dependent part of the Hamiltonian is state-free
    (the bundled linear-cost problem), so the maximizer is deterministic: it
    maximizes the Hamiltonian at x = 0, read from the c_0 tables of b, sigma
    and f along each control point.
    """
    if adjoints.Ab1 is not None:
        raise ValueError("the argmax control needs deterministic adjoint contractions")
    u_pts = coeffs.control_domain.points
    N = grid.n_steps
    tabs = coeff_tables(coeffs, [ControlPath.constant(v, grid, coeffs.du) for v in u_pts],
                        grid, _H_NAMES)
    # the last step reuses the contractions of step N - 1
    steps = np.minimum(np.arange(N + 1), N - 1)
    h = _hamiltonian_of(adjoints.Ab0[steps, None], adjoints.Aq0[steps, None],
                        *(coefs[0] for coefs in tabs))
    # argmax takes the first of equal maxima, as the strict comparison did
    return ControlPath(u_pts[np.argmax(h, axis=1)], deterministic=True)


def perturb_control(u: ControlPath, grid: TimeGrid, t_lo: float, t_hi: float,
                    value) -> ControlPath:
    """Replace a deterministic control by a fixed value on [t_lo, t_hi)."""
    j0, j1 = grid.index_of(t_lo), grid.index_of(t_hi)
    vals = u.values.copy()
    vals[j0:j1] = value
    return ControlPath(vals, deterministic=True)


# ---------------------------------------------------------------------------
# classical (single-atom) reference checker
# ---------------------------------------------------------------------------

def classical_adjoint_gaps(coeffs: CoefficientSet, u_hat: ControlPath,
                           u_grid: np.ndarray, grid: TimeGrid,
                           x_hat: np.ndarray | None = None,
                           tables: GapTables | None = None) -> dict:
    """Directly-solved classical adjoints and inequality gaps (scalar state).

    Solves the two backward equations with the same implicit left-point
    convention as the field solver at decay rate zero, without any grid
    machinery: a per-step scalar solve.  Deterministic data only.  The gaps
    read ``gap_tables`` (``tables``, else built here) and the state ``x_hat``
    only where they depend on x, as in ``check_variational_inequality``.
    """
    if coeffs.dim != 1:
        raise NotImplementedError("classical reference checker is scalar-state")
    N, dt = grid.n_steps, grid.dt
    x0 = np.zeros((1, 1))
    (bx,), (sx,), (fx,), (fxx,) = coeff_tables(coeffs, u_hat, grid,
                                               ("b_x", "sigma_x", "f_x", "f_xx"))
    bx, sx, fx, fxx = bx[:, 0, 0], sx[:, 0, 0], fx[:, 0], fxx[:, 0, 0]
    p = np.empty(N + 1)
    P = np.empty(N + 1)
    p[N] = -coeffs.h_x(x0)[0, 0]
    P[N] = -coeffs.h_xx(x0)[0, 0, 0]
    for m in range(N - 1, -1, -1):
        p[m] = (p[m + 1] - dt * fx[m]) / (1.0 - dt * bx[m])
        P[m] = (P[m + 1] - dt * fxx[m]) / (1.0 - dt * (2.0 * bx[m] + sx[m] ** 2))

    tabs = gap_tables(coeffs, u_hat, u_grid, grid) if tables is None else tables
    means = _gap_stats(tabs, lambda ms: (p[ms, None], np.zeros((ms.size, 1)), P[ms, None, None]),
                       x_hat, 1)[0]
    keys = ((m * dt, float(v[0])) for m in range(N) for v in tabs.u_pts)
    return {"p": p, "P": P, "gaps": dict(zip(keys, means.tolist()))}
