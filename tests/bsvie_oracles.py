"""Reference loop forms of the Volterra-bridge evaluators (test-only oracles).

These are the direct per-grid-point transcriptions of the bridge residuals
and the second-order reconstruction: every inner sum is written out as the
quadrature it stands for.  ``volterra_smp.bsvie`` evaluates the same sums as
lag-table contractions; the property tests compare the two.
"""

import numpy as np

from volterra_smp.bsee import contract_pair_right
from volterra_smp.bsvie import _kernel_scalar_tables
from volterra_smp.coefficients import coeff_tables
from volterra_smp.kernels import step_decay_weight


def bsvie_residual_first(tuple_, coeffs, u_hat, kernel, ens=None) -> dict:
    grid = tuple_.grid
    N = grid.n_steps
    # where f_x moves with x, the residual reads it at x = 0: its c_0
    (bx,), (sx,), (fx, *_) = coeff_tables(coeffs, u_hat, grid, ("b_x", "sigma_x", "f_x"))
    bx, sx, fx = bx[:, 0, 0], sx[:, 0, 0], fx[:, 0]
    kb_pt, kb_int = _kernel_scalar_tables(kernel, grid, "b")
    ks_pt, _ = _kernel_scalar_tables(kernel, grid, "sigma")

    if tuple_.deterministic:
        res1 = 0.0
        res2 = 0.0
        for m in range(N + 1):
            tail = float(np.dot(kb_int[:N - m], tuple_.p2_0[m:N])) if m < N else 0.0
            rhs = (-fx[m] + bx[m] * kb_pt[N - m] * tuple_.p1_0[m]
                   + sx[m] * ks_pt[N - m] * tuple_.q1[m] + bx[m] * tail)
            res2 = max(res2, abs(tuple_.p2_0[m] - rhs))
        return {"res_line1": res1, "res_line2": res2}

    Z = tuple_.Z.values
    res1 = 0.0
    res2 = 0.0
    terminal = tuple_.p1_0[N] + tuple_.p1_1[N] * Z[:, N]
    for m in range(N + 1):
        p1_m = tuple_.p1_0[m] + tuple_.p1_1[m] * Z[:, m]
        mart = np.sum(tuple_.q1[None, m:N] * ens.dW[:, m:], axis=1) if m < N else 0.0
        res1 = max(res1, float(np.max(np.abs(p1_m - (terminal - mart)))))
        # p2 is deterministic (q2 = 0): its generator tail has no Z part
        tail = 0.0
        for k in range(m, N):
            tail += bx[m] * kb_int[k - m] * tuple_.p2_0[k]
        rhs = (-fx[m] + bx[m] * kb_pt[N - m] * p1_m
               + sx[m] * ks_pt[N - m] * tuple_.q1[m] + tail)
        res2 = max(res2, float(np.max(np.abs(tuple_.p2_0[m] - rhs))))
    return {"res_line1": res1, "res_line2": res2}


def m_constraint_residual_first(tuple_, ens) -> float:
    if tuple_.deterministic:
        return 0.0
    N = tuple_.grid.n_steps
    Z = tuple_.Z.values
    z0 = float(Z[0, 0])
    lvl0, lvl1 = tuple_.p1_0, tuple_.p1_1
    worst = 0.0
    for s in range(N + 1):
        val = lvl0[s] + lvl1[s] * Z[:, s]
        mart = np.sum((lvl1[s] * tuple_.Z.vol[None, :s]) * ens.dW[:, :s], axis=1) \
            if s > 0 else 0.0
        worst = max(worst, float(np.max(np.abs(val - (lvl0[s] + lvl1[s] * z0) - mart))))
    return worst


def bsvie_residual_second(tuple2, coeffs, adjoints, kernel) -> dict:
    grid = tuple2.grid
    N, dt = grid.n_steps, grid.dt
    (bx,), (sx,), (fxx,) = coeff_tables(coeffs, adjoints.u_hat, grid, ("b_x", "sigma_x", "f_xx"))
    bx, sx, fxx = bx[:, 0, 0], sx[:, 0, 0], fxx[:, 0, 0]
    hxx = coeffs.h_xx(np.zeros((1, 1)))[0, 0, 0]
    kb_pt, kb_int = _kernel_scalar_tables(kernel, grid, "b")
    ks_pt, ks_int = _kernel_scalar_tables(kernel, grid, "sigma")
    th = kernel.nodes
    w = kernel.weights
    mb = kernel.mb[:, 0, 0]
    ms = kernel.msigma[:, 0, 0]

    res1 = float(np.max(np.abs(tuple2.P1 + hxx)))

    res2 = 0.0
    for m in range(N + 1):
        tail = float(np.dot(kb_int[:N - m], tuple2.P2[m:N])) if m < N else 0.0
        rhs = bx[m] * (kb_pt[N - m] * tuple2.P1[m] + tail)
        res2 = max(res2, abs(tuple2.P2[m] - rhs))

    res4 = 0.0
    for ri in (int(i) for i in tuple2.r_indices):
        row = contract_pair_right(kernel, "b", adjoints.second.P[ri])[:, 0, 0]
        for m in range(0, ri):
            damp = np.exp(-th * (ri - m) * dt)
            head = float((w * mb * damp) @ (tuple2.P3[ri] + row * bx[ri]))
            tail = float(np.dot(kb_int[:ri - m], tuple2.P4[ri][m:ri]))
            rhs = bx[m] * (head + tail)
            res4 = max(res4, abs(tuple2.P4[ri][m] - rhs))

    varpi = th[:, None] + th[None, :]
    om2 = step_decay_weight(varpi.reshape(-1), dt).reshape(varpi.shape)
    wms = w * ms
    full = set(int(i) for i in tuple2.r_indices) == set(range(1, N + 1))
    res3 = 0.0
    eval_pts = sorted(set([0] + [int(i) for i in tuple2.r_indices if i < N]))
    for m in eval_pts:
        acc = ks_pt[N - m] ** 2 * tuple2.P1[m]
        for k in range(m, N):
            pair_w = float(wms @ (om2 * np.exp(-varpi * ((k - m) * dt))) @ wms)
            mix_w = float((wms * np.exp(-th * (grid.T - grid.t[k])))
                          @ (om2 * np.exp(-varpi * ((k - m) * dt))) @ wms)
            acc += pair_w * tuple2.P3[k] + 2.0 * mix_w * tuple2.P2[k]
            if full:
                omth = step_decay_weight(th, dt)
                for si in range(k + 1, N + 1):
                    p4_w = float((wms * omth * np.exp(-th * (si - k) * dt))
                                 @ (om2 * np.exp(-varpi * ((k - m) * dt))) @ wms)
                    acc += 2.0 * p4_w * tuple2.P4[si][k]
        rhs3 = -fxx[m] + sx[m] * acc * sx[m]
        res3 = max(res3, abs(tuple2.P3[m] - rhs3))

    return {"res_eq1": res1, "res_eq2": res2, "res_eq3": res3, "res_eq4": res4}


def reconstruct_second_field(tuple2, kernel) -> np.ndarray:
    grid = tuple2.grid
    N, dt = grid.n_steps, grid.dt
    th = kernel.nodes
    K = kernel.n_nodes
    varpi = th[:, None] + th[None, :]
    dec2 = np.exp(-varpi * dt)
    om2 = step_decay_weight(varpi.reshape(-1), dt).reshape(varpi.shape)
    omth = step_decay_weight(th, dt)
    full = set(int(i) for i in tuple2.r_indices) == set(range(1, N + 1))
    P = np.zeros((N + 1, K, K))
    P[N] = tuple2.P1[N]
    for m in range(N - 1, -1, -1):
        eb = np.exp(-th * (grid.T - grid.t[m]))
        Gm = np.full((K, K), tuple2.P3[m])
        Gm += eb[:, None] * tuple2.P2[m] + eb[None, :] * tuple2.P2[m]
        if full:
            acc = np.zeros(K)
            for si in range(m + 1, N + 1):
                acc += omth * np.exp(-th * (si - m) * dt) * tuple2.P4[si][m]
            Gm += acc[:, None] + acc[None, :]
        P[m] = dec2 * P[m + 1] + om2 * Gm
    return P
