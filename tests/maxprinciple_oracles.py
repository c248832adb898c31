"""Reference loop forms of the variational-inequality check, the classical
inequality gaps and the argmax control (test-only oracles).

One round of coefficient calls per (step, control point), as all three were
first written.  ``maxprinciple.check_variational_inequality`` and
``maxprinciple.classical_adjoint_gaps`` evaluate blocks of steps with every
control point at once and ``maxprinciple.construct_argmax_control`` every
(step, control point) pair at once; the tests compare the results exactly.

``j12_gap_sweep`` compares the cost expansion J12 of the forward expansion
processes with its adjoint representation (minus the mean spike integral of
``maxprinciple.duality_residuals``) over a spike-size sweep; only the tests
use it.

``hfunction`` is the risk-adjusted Hamiltonian at one grid time, the quantity
whose gaps the variational-inequality check evaluates in blocks.
"""

import numpy as np

from volterra_smp.bsee import AdjointSolution
from volterra_smp.coefficients import CoefficientSet, ControlPath
from volterra_smp.maxprinciple import MPReport, duality_residuals, hamiltonian
from volterra_smp.stats import fit_loglog, mc_mean_se
from volterra_smp.variation import SpikeSpec


def check_variational_inequality(coeffs, u_hat, adjoints, u_grid, ens, x_hat,
                                 tol_margin=1e-8, se_margin=3.0) -> MPReport:
    grid = ens.grid
    N = grid.n_steps
    u_pts = np.atleast_2d(np.asarray(u_grid, dtype=float))
    if u_pts.shape[0] == 1 and u_pts.shape[1] > 1:
        u_pts = u_pts.T
    rows = []
    min_gap = np.inf
    min_loc = (0.0, None)
    min_se = 0.0
    spread = 0.0
    max_quad = 0.0
    for m in range(N):
        t = m * grid.dt
        x_m = x_hat[:, m]
        Ab, Aq = adjoints.first_contractions_at(m)
        R = adjoints.risk_matrix_at(m)
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
            rows.append((t, float(v[0]), gmean, gse, True))
            if gmean < min_gap:
                min_gap, min_loc, min_se = gmean, (t, float(v[0])), gse
    deterministic = spread < 1e-12
    margin = tol_margin if deterministic else se_margin * min_se
    passed = min_gap >= -margin
    rows = [(t, v, g, s, g >= -(tol_margin if deterministic else se_margin * max(s, 0.0)))
            for (t, v, g, s, _) in rows]
    alpha = adjoints.kernel.alpha
    return MPReport(rows=rows, min_gap=float(min_gap), min_location=min_loc,
                    passed=bool(passed), deterministic=deterministic,
                    tol_margin=margin, alpha=alpha,
                    alpha_hypothesis=bool(abs(alpha - 1.0 / 3.0) < 1e-12),
                    max_quadratic_term=max_quad)


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


def j12_gap_sweep(coeffs, adjoints, ens, x_hat, tau: float, eps_list, v: ControlPath,
                  xi=0.0) -> dict:
    """|gap| against eps across a sweep, with the fitted log-log slope."""
    rows = []
    for eps in eps_list:
        spike = SpikeSpec(tau=tau, eps=float(eps), v=v)
        r = duality_residuals(coeffs, spike, adjoints, ens, x_hat, xi=xi)
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
    from volterra_smp.maxprinciple import classical_adjoint_gaps as stacked
    ref = stacked(coeffs, u_hat, u_grid, grid, x_hat)
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
    R = adjoints.risk_matrix_at(m)
    x = np.atleast_2d(np.asarray(x_hat, dtype=float))
    base = hamiltonian(coeffs, t, v, x, Ab, Aq)
    gap_sigma = coeffs.sigma(t, u_hat_t, x) - coeffs.sigma(t, v, x)
    quad = 0.5 * np.einsum("pa,ab,pb->p", gap_sigma, R, gap_sigma)
    return base + quad
