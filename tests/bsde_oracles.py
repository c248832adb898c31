"""Reference forms of the scalar BSDE checks (test-only oracles).

These are the per-table and per-step forms of ``volterra_smp.bsde``:
``apriori_ratio`` builds every squared and cross table of the weighted
integrals and takes each integral as its own matrix-vector product,
``martingale_check`` forms the residual from broadcast products, and
``solve_bsde_lsmc`` evaluates the regression basis step by step.  The
property tests compare the module against them.
"""

import math

import numpy as np

from volterra_smp.bsde import _exp_power_step_integrals, _gaussian_poly_conditioning
from volterra_smp.kernels import step_decay_weight


def _poly_design(x, degree):
    return np.stack([x ** k for k in range(degree + 1)], axis=1)


def martingale_check(p, q, generator, kappa, ens) -> dict:
    grid = ens.grid
    disc = np.exp(-kappa * grid.t)
    om = float(step_decay_weight(kappa, grid.dt))
    if p.ndim == 1:
        p = np.broadcast_to(p, (ens.n_paths, p.size))
    if q.ndim == 1:
        q = np.broadcast_to(q, (ens.n_paths, q.size))
    D = (disc[None, 1:] * p[:, 1:] - disc[None, :-1] * p[:, :-1]
         + disc[None, :-1] * om * generator[None, :-1]
         - disc[None, :-1] * q[:, :-1] * ens.dW)
    return {"max_pathwise": float(np.max(np.abs(D)))}


def solve_bsde_lsmc(inst, ens, degree=1, mode="later") -> dict:
    grid = inst.grid
    N, dt = grid.n_steps, grid.dt
    paths = ens.n_paths
    W = ens.W
    terminal = inst.terminal_values(ens)
    dec = float(np.exp(-inst.kappa * dt))
    om = float(step_decay_weight(inst.kappa, dt))
    p = np.empty((paths, N + 1))
    q = np.zeros((paths, N + 1))
    p[:, N] = terminal
    if mode == "later":
        X = _poly_design(W[:, N], degree)
        coef, *_ = np.linalg.lstsq(X, terminal, rcond=1e-8)
        for m in range(N - 1, -1, -1):
            cond, slope = _gaussian_poly_conditioning(coef, dt)
            pm_det = _poly_design(W[:, m], degree) @ cond
            q[:, m] = dec * (_poly_design(W[:, m], degree) @ slope)
            p[:, m] = dec * pm_det + om * inst.generator[m]
            coef = dec * cond
            coef[0] += om * inst.generator[m]
        return {"p": p, "q": q, "mode": mode, "degree": degree}
    for m in range(N - 1, -1, -1):
        X = _poly_design(W[:, m], degree)
        targets = np.stack([dec * p[:, m + 1] + om * inst.generator[m],
                            dec * p[:, m + 1] * ens.dW[:, m] / dt], axis=1)
        coef, *_ = np.linalg.lstsq(X, targets, rcond=1e-8)
        p[:, m], q[:, m] = (X @ coef).T
    return {"p": p, "q": q, "mode": mode, "degree": degree}


def apriori_ratio(inst, sol, ens) -> dict:
    grid = inst.grid
    alpha, kappa = inst.alpha, inst.kappa
    W = ens.W
    c_, a_ = inst.terminal_const, inst.terminal_wt
    A = c_ + a_ * W
    G = sol.gen_tail
    w2 = _exp_power_step_integrals(2.0 * kappa, alpha, grid)
    w1 = _exp_power_step_integrals(kappa, alpha, grid)
    w0 = _exp_power_step_integrals(0.0, alpha, grid)
    w2f = _exp_power_step_integrals(2.0 * kappa, 0.0, grid)
    w1f = _exp_power_step_integrals(kappa, 0.0, grid)
    w0f = np.full(grid.n_steps, grid.dt)
    A2 = A[:, :-1] ** 2
    AG = A[:, :-1] * G[None, :-1]
    G2 = G[:-1] ** 2

    def p_integral(wa, wb, wc):
        return A2 @ wa + 2.0 * (AG @ wb) + np.sum(G2 * wc)

    int_p2 = p_integral(w2f, w1f, w0f)
    int_p2_w = p_integral(w2, w1, w0)
    int_q2 = a_ ** 2 * float(np.sum(w2f))
    int_q2_w = a_ ** 2 * float(np.sum(w2))
    p_vals = sol.det[None, :] + sol.wt[None, :] * W
    sup_p2 = np.max(p_vals ** 2, axis=1)
    sup_p2_w = np.max((grid.T - grid.t)[None, :] ** alpha * p_vals ** 2, axis=1)
    lhs_paths = (sup_p2 + kappa * int_p2 + int_q2
                 + kappa ** alpha * sup_p2_w
                 + kappa ** (1.0 + alpha) * int_p2_w
                 + kappa ** alpha * int_q2_w)
    lhs = float(np.mean(lhs_paths))
    h = inst.terminal_values(ens)
    g2w = np.sum(inst.generator[:-1] ** 2 * w0)
    rhs = float(np.mean(h ** 2)) + math.gamma(1.0 - alpha) / kappa ** (1.0 - alpha) * float(g2w)
    if rhs == 0.0:
        if lhs == 0.0:
            return {"ratio": 0.0, "trivial": True, "lhs": 0.0, "rhs": 0.0}
        return {"ratio": np.inf, "trivial": False, "lhs": lhs, "rhs": 0.0}
    return {"ratio": lhs / rhs, "trivial": False, "lhs": lhs, "rhs": rhs}
