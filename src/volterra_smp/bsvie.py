"""Bridge between the decay-grid backward fields and their Volterra form.

The first-order field (p, q) repackages into a tuple (p1, q1, p2, q2):
p1(t) is the conditional expectation of the terminal slope, p2(t) the field
generator, q1 / q2(s, t) the martingale integrands, subject to the
representation constraint p2(s) = E[p2(s)] + int_0^s q2(s, t) dW_t.  On every
solve path the bridge reads, p2 is the deterministic generator table, so
q2 = 0 and the tuple stores (p1, q1, p2) only.  The second-order field
repackages into (P1..P4) through an auxiliary field with terminal -h_xx and
an r-indexed family on [0, r] collecting the Hessian and risk data at r; one
backward sweep solves them all, keeps one field row per solve and returns
their generators.

Quadrature convention: terminal kernel factors enter at point values
K_hat(T - t) and generator integrals at exact step integrals
L_hat(tau) = int_tau^{tau+dt} K_hat(s) ds, matching the backward solver
algebra exactly.  With this convention the first-order residuals and the
pair-level identities without state-derivative couplings vanish identically;
coupled pair-level identities mix the two node scales and hold at O(dt).
This holds for every atom kernel, singular lifts included; the weighted-
integrability caveat of a singular kernel concerns the continuum BSVIE only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsee import AdjointSolution, contract_pair_right
from .coefficients import coeff_tables
from .grids import TimeGrid
from .kernels import (DiscreteLaplaceKernel, discounted_sweep, step_decay_weight,
                      sweep_factors)
from .simulate import BrownianEnsemble


@dataclass
class BSVIEFirstTuple:
    """(p1, q1, p2) in the scalar deterministic or affine regime; q2 = 0.

    p2 = p2_0 is the deterministic generator table on both regimes.  Affine
    regime: p1(t) = p1_0 + p1_1 Z_t, q1 = p1_1 vol; the deterministic regime
    has p1_1 and Z None.
    """

    grid: TimeGrid
    p1_0: np.ndarray
    p2_0: np.ndarray
    q1: np.ndarray
    p1_1: np.ndarray | None = None
    Z: object = None

    @property
    def deterministic(self) -> bool:
        return self.p1_1 is None


def bsee_to_bsvie_first(adjoints: AdjointSolution, kernel: DiscreteLaplaceKernel,
                        allow_singular: bool = False) -> BSVIEFirstTuple:
    """Repackage the first-order field; martingale parts from the solve path.

    Exact on every atom kernel, singular lifts included (a lift's kernel is
    bounded at 0 for any node count); ``allow_singular`` is ignored.
    """
    if kernel.dim != 1:
        raise NotImplementedError("Volterra bridge is scalar-state")
    fld = adjoints.first
    grid = adjoints.grid
    N = grid.n_steps
    phi0 = fld.P0[N, 0, 0]
    p2_0 = fld.G0[:, 0, 0].copy()
    if fld.P1 is None:
        return BSVIEFirstTuple(grid=grid, p1_0=np.full(N + 1, phi0),
                               p2_0=p2_0, q1=np.zeros(N + 1))
    phi1 = fld.P1[N, 0, 0]
    return BSVIEFirstTuple(grid=grid, p1_0=np.full(N + 1, phi0), p2_0=p2_0,
                           q1=phi1 * fld.Z.vol, p1_1=np.full(N + 1, phi1), Z=fld.Z)


def _kernel_scalar_tables(kernel: DiscreteLaplaceKernel, grid: TimeGrid, which: str):
    """Point values K_hat(j dt), j >= 0, and step integrals L_hat(j dt)."""
    taus = grid.dt * np.arange(grid.n_steps + 1)
    kpt = kernel.eval(which, taus)[:, 0, 0]
    lint = kernel.step_integrated_eval(which, taus, grid.dt)[:, 0, 0]
    return kpt, lint


def _lag_sums(L: np.ndarray, g: np.ndarray, stop: int) -> np.ndarray:
    """S[m] = sum_{k=m}^{stop-1} L[k-m] . g[k], m = 0..stop, for a lag table L and
    a grid table g; "." contracts L's trailing axes with g's next ones.  One dot
    per m, so scalar tables reproduce the per-point np.dot bit for bit; it is
    the dot np.tensordot makes, without its per-call reshaping."""
    out = np.zeros((stop + 1,) + g.shape[L.ndim:])
    flat = out.reshape(stop + 1, -1)
    for m in range(stop):
        np.dot(L[:stop - m].reshape(1, -1), g[m:stop].reshape(-1, flat.shape[1]),
               out=flat[m:m + 1])
    return out


def bsvie_residual_first(tuple_: BSVIEFirstTuple, coeffs, u_hat, kernel,
                         ens: BrownianEnsemble | None = None) -> dict:
    """Max-abs residuals of the two Volterra-form equations over the grid."""
    grid = tuple_.grid
    N = grid.n_steps
    # where f_x moves with x, the residual reads it at x = 0: its c_0
    (bx,), (sx,), (fx, *_) = coeff_tables(coeffs, u_hat, grid, ("b_x", "sigma_x", "f_x"))
    bx, sx, fx = bx[:, 0, 0], sx[:, 0, 0], fx[:, 0]
    kb_pt, kb_int = _kernel_scalar_tables(kernel, grid, "b")
    ks_pt, _ = _kernel_scalar_tables(kernel, grid, "sigma")
    # p2 is deterministic, so its generator tail is one lag sum and q2 = 0
    tail = bx * _lag_sums(kb_int, tuple_.p2_0, N)

    if tuple_.deterministic:
        rhs = -fx + bx * kb_pt[::-1] * tuple_.p1_0 + sx * ks_pt[::-1] * tuple_.q1 + tail
        return {"res_line1": 0.0, "res_line2": float(np.max(np.abs(tuple_.p2_0 - rhs)))}

    if ens is None:
        raise ValueError("affine residuals need the ensemble")
    Z = tuple_.Z.values
    terminal = tuple_.p1_0[N] + tuple_.p1_1[N] * Z[:, N]
    mart = np.zeros(ens.n_paths)  # sum_{k>=m} q1_k dW_k, accumulated backwards
    res1 = res2 = 0.0
    for m in range(N, -1, -1):
        if m < N:
            mart += tuple_.q1[m] * ens.dW[:, m]
        p1_m = tuple_.p1_0[m] + tuple_.p1_1[m] * Z[:, m]
        res1 = max(res1, float(np.max(np.abs(p1_m - (terminal - mart)))))
        rhs = (-fx[m] + bx[m] * kb_pt[N - m] * p1_m + sx[m] * ks_pt[N - m] * tuple_.q1[m]
               + tail[m])
        res2 = max(res2, float(np.max(np.abs(tuple_.p2_0[m] - rhs))))
    return {"res_line1": res1, "res_line2": res2}


def m_constraint_residual_first(tuple_: BSVIEFirstTuple, ens: BrownianEnsemble) -> float:
    """Residual of the M-solution constraint p1(s) = E[p1(s)] + int_0^s p1_1 vol dW;
    for p2 it holds exactly, p2 being deterministic (q2 = 0)."""
    if tuple_.deterministic:
        return 0.0
    N = tuple_.grid.n_steps
    Z, vol = tuple_.Z.values, tuple_.Z.vol
    lvl0, lvl1 = tuple_.p1_0, tuple_.p1_1
    mart = np.zeros(ens.n_paths)  # sum_{t<s} vol_t dW_t, accumulated forwards
    worst = 0.0
    for s in range(N + 1):
        if s > 0:
            mart += vol[s - 1] * ens.dW[:, s - 1]
        val = lvl0[s] + lvl1[s] * Z[:, s]
        dev = val - (lvl0[s] + lvl1[s] * Z[0, 0]) - lvl1[s] * mart
        worst = max(worst, float(np.max(np.abs(dev))))
    return worst


def reconstruct_first_field(tuple_: BSVIEFirstTuple, kernel: DiscreteLaplaceKernel,
                            grid: TimeGrid) -> np.ndarray:
    """Rebuild the decay-grid field from the tuple (deterministic regime):
    p_rec_m(theta) = e^{-theta (T-t_m)} p1_m + sum_k omega e^{-theta (t_k-t_m)} p2_k."""
    th, N, dt = kernel.nodes, grid.n_steps, grid.dt
    om = step_decay_weight(th, dt)
    P = np.exp(-th[None, :] * (grid.T - grid.t)[:, None]) * tuple_.p1_0[:, None]
    decay = np.exp(-np.outer(th, np.arange(N) * dt))
    for m in range(N):
        P[m] += om * (decay[:, :N - m] @ tuple_.p2_0[m:N])
    return P


# ---------------------------------------------------------------------------
# second order (deterministic scalar regime)
# ---------------------------------------------------------------------------

@dataclass
class BSVIESecondTuple:
    grid: TimeGrid
    P1: np.ndarray          # (N+1,)
    P2: np.ndarray          # (N+1,)
    P3: np.ndarray          # (N+1,)
    r_indices: np.ndarray   # sub-grid indices carrying the r-family
    P4: dict                # r_index -> (N+1,) generator of its r-family solve, for t < r


def _solve_coupled_theta_fields(kernel: DiscreteLaplaceKernel, grid: TimeGrid,
                                phi: np.ndarray, stops: np.ndarray, bx: np.ndarray):
    """Generators of backward scalar decay-grid fields with g_m = bx_m mu[Mb p_m].

    Row i runs from phi[i] at grid index stops[i] back to 0, all rows in one
    sweep; the generator is theta-free, so the implicit left-point step is
    one scalar solve per row.  The sweep keeps one (R, K) row of fields, the
    current step's; returns the generators (R, N+1).
    """
    th = kernel.nodes
    wmb = kernel.weights * kernel.mb[:, 0, 0]
    N, dt = grid.n_steps, grid.dt
    dec, om = sweep_factors(th, dt)
    c1 = float(wmb @ om)
    P = np.zeros((len(stops), th.size))
    G = np.zeros((len(stops), N + 1))
    for m in range(N, -1, -1):
        start, live = stops == m, stops > m
        P[start] = phi[start]
        G[start, m] = bx[m] * (phi[start] @ wmb)  # terminal limit of the generator
        if live.any():
            denom = 1.0 - bx[m] * c1
            if abs(denom) < 1e-12:
                raise ZeroDivisionError("degenerate implicit step in decay-grid solve")
            base = dec * P[live]
            G[live, m] = bx[m] * (base @ wmb) / denom
            P[live] = base + om * G[live, m][:, None]
    return G


def _r_terminals(kernel: DiscreteLaplaceKernel, adjoints: AdjointSolution,
                 P3: np.ndarray, bx: np.ndarray, r_idx: np.ndarray) -> np.ndarray:
    """Terminals phi_r = P3_r + mu[P_r(., theta) Mb] bx_r of the r-family solves: (R, K)."""
    row = contract_pair_right(kernel, "b", adjoints.second.P[r_idx])[:, :, 0, 0]
    return P3[r_idx, None] + row * bx[r_idx, None]


def bsee_to_bsvie_second(coeffs, adjoints: AdjointSolution,
                         kernel: DiscreteLaplaceKernel, ens: BrownianEnsemble,
                         r_subgrid: int | str = 8,
                         allow_singular: bool = False) -> BSVIESecondTuple:
    """Assemble the second-order Volterra tuple (deterministic regime).

    r_subgrid is the size of the r-family sub-grid (>= 4), or "full" for all
    grid indices (needed for exact reconstructions of the pair field).
    ``allow_singular`` is ignored, as in ``bsee_to_bsvie_first``.
    """
    if adjoints.second is None:
        raise ValueError("second-order field not solved")
    if kernel.dim != 1:
        raise NotImplementedError("Volterra bridge is scalar-state")
    grid = adjoints.grid
    N = grid.n_steps
    if r_subgrid == "full":
        r_idx = np.arange(1, N + 1)
    else:
        if int(r_subgrid) < 4:
            raise ValueError("r sub-grid needs at least 4 points")
        r_idx = np.unique(np.linspace(1, N, int(r_subgrid)).astype(int))
    (bx,), (sx,), (fxx,) = coeff_tables(coeffs, adjoints.u_hat, grid, ("b_x", "sigma_x", "f_xx"))
    bx, sx, fxx = bx[:, 0, 0], sx[:, 0, 0], fxx[:, 0, 0]
    hxx = coeffs.h_xx(np.zeros((1, 1)))[0, 0, 0]
    P3 = -fxx + sx * adjoints.Rss[:, 0, 0] * sx
    # one sweep for the auxiliary field (terminal -h_xx at T) and the r-family
    phi = np.vstack([np.full(kernel.n_nodes, -hxx), _r_terminals(kernel, adjoints, P3, bx, r_idx)])
    gens = _solve_coupled_theta_fields(kernel, grid, phi, np.r_[N, r_idx], bx)
    return BSVIESecondTuple(grid=grid, P1=np.full(N + 1, -hxx), P2=gens[0], P3=P3,
                            r_indices=r_idx, P4=dict(zip(r_idx.tolist(), gens[1:])))


def _lag_decay(th: np.ndarray, dt: float, n: int) -> np.ndarray:
    """e^{-theta d dt} for the lags d = 0..n-1, shape (n, K)."""
    return np.exp(-th[None, :] * np.arange(n)[:, None] * dt)


def _r_family_table(tuple2: BSVIESecondTuple) -> np.ndarray:
    """Q[r, k] = P4(r, k) for k < r; rows off the r-family are zero."""
    n = tuple2.grid.n_steps + 1
    Q = np.zeros((n, n))
    Q[tuple2.r_indices] = np.stack([tuple2.P4[int(r)] for r in tuple2.r_indices])
    return np.tril(Q, -1)


def _side_table(tuple2: BSVIESecondTuple, th: np.ndarray) -> np.ndarray:
    """One-slot generator part of the pair field, (N+1, K): S_k = e^{-theta (T-t_k)} P2_k
    + omega(theta) sum_{s>k} e^{-theta (t_s-t_k)} P4(s, k), the tail with the full r-family."""
    grid = tuple2.grid
    N, dt = grid.n_steps, grid.dt
    side = np.exp(-th[None, :] * (grid.T - grid.t)[:, None]) * tuple2.P2[:, None]
    if set(int(i) for i in tuple2.r_indices) == set(range(1, N + 1)):
        Q = _r_family_table(tuple2)
        # skew Q so that row j holds the lag-j diagonal: D[j, k] = Q[k + j, k]
        s = np.arange(N + 1)[:, None] + np.arange(N + 1)[None, :]
        D = np.where(s <= N, Q[np.minimum(s, N), np.arange(N + 1)], 0.0)
        side = side + step_decay_weight(th, dt) * (D.T @ _lag_decay(th, dt, N + 1))
    return side


def bsvie_residual_second(tuple2: BSVIESecondTuple, coeffs,
                          adjoints: AdjointSolution,
                          kernel: DiscreteLaplaceKernel) -> dict:
    """Residuals of the four Volterra-form equations.

    Equations 1, 2 and 4 check against the solver-exact quadrature and vanish
    identically in the supported regime.  Equation 3 expands the risk
    contraction of the pair field into tuple terms; the expansion is exact
    when the drift coupling vanishes (P2 = P4 = 0) and O(dt) otherwise, so
    the returned eq3 value is a consistency indicator in the coupled case.
    """
    grid = tuple2.grid
    N, dt = grid.n_steps, grid.dt
    (bx,), (sx,), (fxx,) = coeff_tables(coeffs, adjoints.u_hat, grid, ("b_x", "sigma_x", "f_xx"))
    bx, sx, fxx = bx[:, 0, 0], sx[:, 0, 0], fxx[:, 0, 0]
    hxx = coeffs.h_xx(np.zeros((1, 1)))[0, 0, 0]
    kb_pt, kb_int = _kernel_scalar_tables(kernel, grid, "b")
    ks_pt, _ = _kernel_scalar_tables(kernel, grid, "sigma")
    th = kernel.nodes
    wmb = kernel.weights * kernel.mb[:, 0, 0]
    wms = kernel.weights * kernel.msigma[:, 0, 0]
    r_idx = tuple2.r_indices

    res1 = float(np.max(np.abs(tuple2.P1 + hxx)))

    rhs2 = bx * (kb_pt[::-1] * tuple2.P1 + _lag_sums(kb_int, tuple2.P2, N))
    res2 = float(np.max(np.abs(tuple2.P2 - rhs2)))

    # eq4, m < r: P4(r, m) = bx_m (mu[Mb e^{-theta (r-m) dt}] phi_r + sum_{k<r} L_b(k-m) P4(r, k))
    phi = _r_terminals(kernel, adjoints, tuple2.P3, bx, r_idx)
    head = (_lag_decay(th, dt, N + 1) * wmb) @ phi.T               # (lag, R)
    lag = r_idx[None, :] - np.arange(N + 1)[:, None]               # (m, R): r - m
    live = lag > 0
    P4 = _r_family_table(tuple2)[r_idx].T                          # (m, R)
    rhs4 = bx[:, None] * (head[np.where(live, lag, 0), np.arange(r_idx.size)]
                          + _lag_sums(kb_int, P4, N))
    res4 = float(np.max(np.abs(P4 - rhs4), where=live, initial=0.0))

    # eq3: risk-contraction expansion (exact when P2 = P4 = 0), with the lag tables
    # U[d] = (omega(varpi) e^{-varpi d dt}) wms: acc_m = Ks(T-t_m)^2 P1_m
    # + sum_{k>=m} ((wms.U[k-m]) P3_k + 2 (wms S_k).U[k-m]), S the one-slot part.
    varpi = kernel.pair_rates
    om2 = step_decay_weight(varpi, dt)
    U = (om2 * np.exp(-varpi * (np.arange(N) * dt)[:, None, None])) @ wms   # (N, K)
    acc = (ks_pt[::-1] ** 2 * tuple2.P1 + _lag_sums(U @ wms, tuple2.P3, N)
           + 2.0 * _lag_sums(U, wms * _side_table(tuple2, th), N))
    rhs3 = -fxx + sx * acc * sx
    eval_pts = np.union1d([0], r_idx[r_idx < N])
    res3 = float(np.max(np.abs(tuple2.P3[eval_pts] - rhs3[eval_pts])))

    return {"res_eq1": res1, "res_eq2": res2, "res_eq3": res3, "res_eq4": res4}


def reconstruct_second_field(tuple2: BSVIESecondTuple, kernel: DiscreteLaplaceKernel) -> np.ndarray:
    """Rebuild the pair field from the tuple by recomposing its generator.

    G^V_k(i, j) = P3_k + S_k(th_i) + S_k(th_j) with the one-slot part
    S_k = e^{-th (T-t_k)} P2_k + sum_{s>k} omega(th) e^{-th (t_s-t_k)} P4(s, k);
    exact when the couplings vanish (G^V = P3); needs the full r-family and
    holds at O(dt) otherwise.
    """
    th = kernel.nodes
    side = _side_table(tuple2, th)
    G = tuple2.P3[:, None, None] + side[:, :, None] + side[:, None, :]
    return discounted_sweep(kernel.pair_rates, tuple2.grid.dt, tuple2.P1[-1], G)
