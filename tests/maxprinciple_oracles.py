"""Reference loop forms of the variational-inequality check, the classical
inequality gaps and the argmax control (test-only oracles).

``check_variational_inequality`` and ``classical_adjoint_gaps`` make one
round of coefficient calls per (step, control point) at the reference
states, as both were first written: they are the reference that the
tabulated gaps of ``maxprinciple`` are compared with at roundoff.
``check_variational_inequality_on_tables`` and
``classical_adjoint_gaps_on_tables`` loop over (step, control point) on the
tables that ``maxprinciple.gap_tables`` builds (scalar state), evaluating each
difference of degree >= 1 by ``coefficients.horner`` at the states of one
step; the tests compare them with ``maxprinciple`` exactly.
``construct_argmax_control`` makes one Hamiltonian call per (step, control
point); ``maxprinciple.construct_argmax_control`` reads every pair from its
tables at once, and the tests compare the results exactly.

``j12_gap_sweep`` compares the cost expansion J12 of the forward expansion
processes with its adjoint representation (minus the mean spike integral of
``maxprinciple.duality_residuals``) over a spike-size sweep; only the tests
use it.

``hamiltonian`` is <p, b> + <q, sigma> - f from one round of coefficient
calls; ``hfunction`` is the risk-adjusted Hamiltonian at one grid time, the
quantity whose gaps the variational-inequality check evaluates in blocks.

``duality_residuals`` is the loop form of ``maxprinciple.duality_residuals``:
its observer recomputes every adjoint contraction at every step, reads the
lift states as (paths, K) rows and always runs the pair-field terms.
"""

import numpy as np

from volterra_smp import maxprinciple
from volterra_smp.bsee import AdjointSolution
from volterra_smp.coefficients import CoefficientSet, ControlPath, horner
from volterra_smp.kernels import step_decay_weight
from volterra_smp.maxprinciple import MPReport
from volterra_smp.stats import fit_loglog, mc_mean_se
from volterra_smp.variation import SpikeSpec, _spike_cosimulation


def hamiltonian(coeffs: CoefficientSet, t: float, u, x, p, q) -> np.ndarray:
    """<p, b> + <q, sigma> - f, vectorized over paths."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    p = np.broadcast_to(np.asarray(p, dtype=float), x.shape)
    q = np.broadcast_to(np.asarray(q, dtype=float), x.shape)
    return (np.sum(p * coeffs.b(t, u, x), axis=-1) + np.sum(q * coeffs.sigma(t, u, x), axis=-1)
            - coeffs.f(t, u, x))


def check_variational_inequality(coeffs, u_hat, adjoints, u_grid, ens, x_hat,
                                 tol_margin=1e-8, se_margin=3.0) -> MPReport:
    grid = ens.grid
    N = grid.n_steps
    u_pts = np.atleast_2d(np.asarray(u_grid, dtype=float))
    if u_pts.shape[0] == 1 and u_pts.shape[1] > 1:
        u_pts = u_pts.T
    rows = []
    spread = 0.0
    max_quad = 0.0
    for m in range(N):
        t = m * grid.dt
        x_m = x_hat[:, m]
        Ab, Aq = adjoints.first_contractions_at(m)
        R = adjoints.Rss[m]
        u_h = u_hat.at(m)
        h_hat = hamiltonian(coeffs, t, u_h, x_m, Ab, Aq)
        sig_hat = coeffs.sigma(t, u_h, x_m)
        for v in u_pts:
            h_v = hamiltonian(coeffs, t, v, x_m, Ab, Aq)
            gap_sigma = sig_hat - coeffs.sigma(t, v, x_m)
            quad = 0.5 * np.einsum("pa,ab,pb->p", gap_sigma, R, gap_sigma)
            gaps = h_hat - h_v - quad
            max_quad = max(max_quad, float(np.max(np.abs(quad))))
            gmean, gse = mc_mean_se(gaps)
            spread = max(spread, float(np.max(gaps) - np.min(gaps)))
            rows.append((t, float(v[0]), gmean, gse))
    return _report(rows, spread, max_quad, tol_margin, se_margin)


def _report(rows, spread, max_quad, tol_margin, se_margin, **extra) -> MPReport:
    """The report of (t, v, gap mean, gap SE) rows in step-major order: the
    first minimum, the pass flags, and the margins of the deterministic
    (spread below 1e-12) or the stochastic case."""
    min_gap = np.inf
    min_loc = (0.0, None)
    min_se = 0.0
    for t, v, gmean, gse in rows:
        if gmean < min_gap:
            min_gap, min_loc, min_se = gmean, (t, v), gse
    deterministic = spread < 1e-12
    margin = tol_margin if deterministic else se_margin * min_se
    passed = min_gap >= -margin
    rows = [(t, v, g, s, g >= -(tol_margin if deterministic else se_margin * max(s, 0.0)))
            for (t, v, g, s) in rows]
    return MPReport(rows=rows, min_gap=float(min_gap), min_location=min_loc,
                    passed=bool(passed), deterministic=deterministic,
                    tol_margin=margin, max_quadratic_term=max_quad, **extra)


def _cell_gap(tabs, m: int, i: int, Ab, Aq, R, x: np.ndarray):
    """The gap of cell (step m, control point i) from the scalar-state tables:
    a float where no term reads x or a per-path Ab, else one value per path.
    Each difference of degree >= 1 is evaluated by ``horner`` at the states x."""
    def at(coefs):
        cs = [float(c[m, i].reshape(-1)[0]) for c in coefs]
        return cs[0] if len(cs) == 1 else horner(cs, x, np.empty(x.shape))
    db, ds, df = at(tabs.db), at(tabs.dsigma), at(tabs.df)
    quad = 0.5 * (ds * R * ds)
    return Ab * db + Aq * ds - df - quad, quad


def check_variational_inequality_on_tables(coeffs, u_hat, adjoints, u_grid, ens, x_hat,
                                           tol_margin=1e-8, se_margin=3.0) -> MPReport:
    """``maxprinciple.check_variational_inequality`` (scalar state) as one
    loop over (step, control point) on the same tables."""
    grid = ens.grid
    tabs = maxprinciple.gap_tables(coeffs, u_hat, u_grid, grid)
    rows = []
    spread = max_quad = 0.0
    for m in range(grid.n_steps):
        Ab, Aq = adjoints.first_contractions_at(m)
        Ab = Ab[..., 0] if Ab.ndim > 1 else float(Ab[0])
        R = float(adjoints.Rss[m][0, 0])
        x = None if x_hat is None else x_hat[:, m, 0]
        for i, v in enumerate(tabs.u_pts):
            gap, quad = _cell_gap(tabs, m, i, Ab, float(Aq[0]), R, x)
            gap = np.atleast_1d(gap)
            max_quad = max(max_quad, float(np.max(np.abs(quad))))
            spread = max(spread, float(np.max(gap) - np.min(gap)))
            rows.append((m * grid.dt, float(v[0]), *mc_mean_se(gap)))
    per_path = tabs.state_degree > 0 or adjoints.Ab1 is not None
    return _report(rows, spread, max_quad, tol_margin, se_margin,
                   state_degree=tabs.state_degree, per_path=per_path)


def construct_argmax_control(coeffs, adjoints, grid) -> ControlPath:
    """One Hamiltonian call per (step, control point); the first maximum wins."""
    u_pts = coeffs.control_domain.points
    N = grid.n_steps
    vals = np.empty((N + 1, coeffs.du))
    x0 = np.zeros((1, coeffs.dim))
    for m in range(N + 1):
        t = m * grid.dt
        Ab, Aq = adjoints.first_contractions_at(min(m, N - 1))
        best, best_val = None, -np.inf
        for v in u_pts:
            hv = float(hamiltonian(coeffs, t, v, x0, Ab, Aq)[0])
            if hv > best_val:
                best, best_val = v, hv
        vals[m] = best
    return ControlPath(vals, deterministic=True)


def j12_gap_sweep(coeffs, adjoints, ens, tau: float, eps_list, v: ControlPath,
                  xi=0.0) -> dict:
    """|gap| against eps across a sweep, with the fitted log-log slope."""
    rows = []
    for eps in eps_list:
        spike = SpikeSpec(tau=tau, eps=float(eps), v=v)
        r = maxprinciple.duality_residuals(coeffs, spike, adjoints, ens, xi=xi)
        j12_direct, _ = r["bundle"].j12()
        j12_adjoint, _ = mc_mean_se(-r["spike_adjoint"])
        rows.append({"eps": float(eps), "j12_direct": j12_direct,
                     "j12_adjoint": j12_adjoint, "gap": j12_direct - j12_adjoint})
    gaps = np.array([abs(r["gap"]) for r in rows])
    eps_arr = np.array([r["eps"] for r in rows])
    fit = fit_loglog(eps_arr, gaps) if np.all(gaps > 0) else None
    return {"rows": rows, "fit": fit}


def classical_adjoint_gaps(coeffs, u_hat, u_grid, grid, x_hat) -> dict:
    """The inequality gaps of ``maxprinciple.classical_adjoint_gaps`` with one
    Hamiltonian and one sigma call per (step, control point), on its adjoints."""
    from volterra_smp.maxprinciple import classical_adjoint_gaps as tabulated
    ref = tabulated(coeffs, u_hat, u_grid, grid, x_hat)
    p, P = ref["p"], ref["P"]
    u_pts = np.atleast_2d(np.asarray(u_grid, dtype=float))
    if u_pts.shape[0] == 1 and u_pts.shape[1] > 1:
        u_pts = u_pts.T
    gaps = {}
    for m in range(grid.n_steps):
        t = m * grid.dt
        x_m = x_hat[:, m]
        u_h = u_hat.at(m)
        h_hat = hamiltonian(coeffs, t, u_h, x_m, p[m], 0.0)
        sig_hat = coeffs.sigma(t, u_h, x_m)
        for v in u_pts:
            h_v = hamiltonian(coeffs, t, v, x_m, p[m], 0.0)
            dsig = sig_hat - coeffs.sigma(t, v, x_m)
            gaps[(t, float(v[0]))] = float(np.mean(h_hat - h_v - 0.5 * P[m] * dsig[:, 0] ** 2))
    return {"p": p, "P": P, "gaps": gaps}


def classical_adjoint_gaps_on_tables(coeffs, u_hat, u_grid, grid, x_hat) -> dict:
    """The gaps of ``maxprinciple.classical_adjoint_gaps`` as one loop over
    (step, control point) on its tables and its adjoints."""
    from volterra_smp.maxprinciple import classical_adjoint_gaps as tabulated
    ref = tabulated(coeffs, u_hat, u_grid, grid, x_hat)
    p, P = ref["p"], ref["P"]
    tabs = maxprinciple.gap_tables(coeffs, u_hat, u_grid, grid)
    gaps = {}
    for m in range(grid.n_steps):
        x = None if x_hat is None else x_hat[:, m, 0]
        for i, v in enumerate(tabs.u_pts):
            gap = _cell_gap(tabs, m, i, p[m], 0.0, P[m], x)[0]
            gaps[(m * grid.dt, float(v[0]))] = float(np.mean(np.atleast_1d(gap)))
    return {"p": p, "P": P, "gaps": gaps}


def hfunction(coeffs: CoefficientSet, adjoints: AdjointSolution, t: float, v,
              x_hat: np.ndarray, u_hat_t) -> np.ndarray:
    """Risk-adjusted Hamiltonian at a grid time.

    H(t, v, X, mu[Mb^T p], mu[Ms^T q])
      + 1/2 < R (sigma(u_hat) - sigma(v)), sigma(u_hat) - sigma(v) >,
    with R the pair-field contraction; reduces to the plain Hamiltonian when
    sigma is control-free.
    """
    m = adjoints.grid.index_of(t)
    Ab, Aq = adjoints.first_contractions_at(m)
    R = adjoints.Rss[m]
    x = np.atleast_2d(np.asarray(x_hat, dtype=float))
    base = hamiltonian(coeffs, t, v, x, Ab, Aq)
    gap_sigma = coeffs.sigma(t, u_hat_t, x) - coeffs.sigma(t, v, x)
    quad = 0.5 * np.einsum("pa,ab,pb->p", gap_sigma, R, gap_sigma)
    return base + quad


class _LoopDualityAccumulator:
    """Per-step product-rule expansions, as in ``maxprinciple._DualityAccumulator``."""

    def __init__(self, adj: AdjointSolution, ens):
        self.adj, self.ens = adj, ens
        self.rhs_exact = np.zeros((2, ens.n_paths))
        self.rhs_display = np.zeros((2, ens.n_paths))
        self.spike_adjoint = np.zeros(ens.n_paths)

    def __call__(self, m, Y1, Y2, forcings, cv):
        k, first, second = self.adj.kernel, self.adj.first, self.adj.second
        dt, P = self.ens.grid.dt, self.ens.n_paths
        w, mb, ms = k.weights, k.mb[:, 0, 0], k.msigma[:, 0, 0]
        dec, om = np.exp(-k.nodes * dt), step_decay_weight(k.nodes, dt)
        Y1, Y2 = Y1[:, :P].T, Y2[:, :P].T                    # (P, K)
        Fb1, Fs1, Fb2, Fs2 = forcings
        Y12, Fb, Fs = Y1 + Y2, Fb1 + Fb2, Fs1 + Fs2
        dW = self.ens.dW[:, m]

        g_m, q_m = first.G0[m, :, 0], first.Q0[m, :, 0]
        pt0 = dec * first.P0[m + 1, :, 0]
        gen_term = -Y12 @ (w * om * g_m)
        qY = Y12 @ (w * q_m)
        ab, as_ = np.sum(w * mb * pt0), np.sum(w * ms * pt0)
        qb, qs = np.sum(w * mb * q_m), np.sum(w * ms * q_m)
        if first.P1 is not None:
            pt1 = dec * first.P1[m + 1, :, 0]
            Zm = first.Z.values[:, m]
            ab = ab + np.sum(w * mb * pt1) * Zm
            as_ = as_ + np.sum(w * ms * pt1) * Zm
        self.rhs_display[0] += gen_term + dt * (ab * Fb + qs * Fs)
        self.rhs_exact[0] += (gen_term + qY * dW + dt * ab * Fb + as_ * Fs * dW
                              + qb * Fb * dt * dW + qs * Fs * dW * dW)

        Pss = 0.0
        if second is not None:
            varpi = k.pair_rates
            ww = np.outer(w, w)
            WPt = ww * np.exp(-varpi * dt) * second.P[m + 1, :, :, 0, 0]
            WG = ww * step_decay_weight(varpi, dt) * second.G[m, :, :, 0, 0]
            U = Y1 @ WPt
            quad = np.einsum("pi,pi->p", Y1 @ WG, Y1)
            Pbb, Pbs, Pss = mb @ WPt @ mb, mb @ WPt @ ms, ms @ WPt @ ms
            cross_b, cross_s = 2.0 * (U @ mb) * Fb1, 2.0 * (U @ ms) * Fs1
            self.rhs_display[1] += -quad + dt * (cross_b + Pss * Fs1 * Fs1)
            self.rhs_exact[1] += (-quad + dt * cross_b + cross_s * dW
                                  + Pbb * Fb1 * Fb1 * dt * dt + 2.0 * Pbs * Fb1 * Fs1 * dt * dW
                                  + Pss * Fs1 * Fs1 * dW * dW)
        if cv:
            db, ds, df = cv["db"], cv["ds"], cv["df"]
            self.spike_adjoint += dt * (ab * db + qs * ds - df + 0.5 * Pss * ds * ds)


def duality_residuals(coeffs, spike, adj, ens, x_hat, xi=0.0) -> dict:
    """The per-path vectors of ``maxprinciple.duality_residuals``, from the
    loop accumulator (no ``bundle`` and no ``pair_terms``)."""
    acc = _LoopDualityAccumulator(adj, ens)
    bundle = _spike_cosimulation(coeffs, adj.kernel, adj.u_hat, [spike], xi, ens,
                                 observer=acc)[0]
    xT = x_hat[:, -1]
    lhs = {"first": -coeffs.h_x(xT)[:, 0] * bundle.terminal["X12_T"]}
    if adj.second is not None:
        X1T = bundle.terminal["X1_T"]
        lhs["second"] = -coeffs.h_xx(xT)[:, 0, 0] * X1T * X1T
    out = {order: {"lhs": v, "exact": v - acc.rhs_exact[i], "display": v - acc.rhs_display[i]}
           for i, (order, v) in enumerate(lhs.items())}
    return {**out, "spike_adjoint": acc.spike_adjoint}
