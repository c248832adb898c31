"""Reference forms of the regression adjoint solve, of the pair-field
Picard solve and of the weighted norms (test-only oracles).

``lsmc_first_adjoint`` is the regression sweep as first written: the lift of
the state simulated from ``xi``, and at every step one ``np.linalg.lstsq``
(rcond 1e-8) of the 2K right-hand sides p~ and p~ dW/dt on the design
[1, Y_m], with every evaluator called per step.  ``bsee`` factors each design
once and projects only what the sweep reads.

``second_adjoint_einsum`` is the order-2 Picard solve with its generator
written as three separate contractions (left, right and the full mu x mu
one as one einsum), its rate tables and norm weights rebuilt on every
iteration.  ``bsee`` forms one one-sided contraction and hoists the rest.

``hnorm1``, ``hnorm2`` and ``s_norm_distance`` are the weighted norms of
first- and second-order fields and the space-time distance of Picard's
stopping rule, composed from ``grids.hnorm_weight`` and ``weighted_norm``.
"""

import numpy as np

from volterra_smp.coefficients import coeff_tables
from volterra_smp.grids import hnorm_weight, weighted_norm
from volterra_smp.kernels import discounted_sweep, step_decay_weight
from volterra_smp.simulate import lift_along, simulate_sve


def lsmc_first_adjoint(coeffs, u_hat, xi, kernel, ens) -> tuple:
    """(P0, Q0, G0), each (N+1, K): path means of p, q and the generator."""
    grid = ens.grid
    N, dt = grid.n_steps, grid.dt
    nodes = kernel.nodes
    K = nodes.size
    x_hat = simulate_sve(coeffs, u_hat, kernel, xi, ens, self_test=False)
    Y = lift_along(coeffs, u_hat, kernel, x_hat, ens)[:, :, 0]     # (N+1, K, paths)
    paths = ens.n_paths
    dec = np.exp(-nodes * dt)
    om = step_decay_weight(nodes, dt)
    p = np.empty((paths, K))
    p[:] = -coeffs.h_x(x_hat[:, -1])[:, 0][:, None]
    P0, Q0, G0 = np.zeros((N + 1, K)), np.zeros((N + 1, K)), np.zeros((N + 1, K))
    P0[N] = np.mean(p, axis=0)
    mb = kernel.mb[:, 0, 0] * kernel.weights
    ms = kernel.msigma[:, 0, 0] * kernel.weights
    for m in range(N - 1, -1, -1):
        basis = np.concatenate([np.ones((paths, 1)), Y[m].T], axis=1)
        disc = p * dec[None, :]
        coef, *_ = np.linalg.lstsq(basis, np.concatenate(
            [disc, disc * ens.dW[:, m][:, None] / dt], axis=1), rcond=1e-8)
        p_tilde, q_m = np.split(basis @ coef, 2, axis=1)
        t = m * dt
        u = u_hat.at(m)
        bxm = coeffs.b_x(t, u, x_hat[:, m])[:, 0, 0]
        sxm = coeffs.sigma_x(t, u, x_hat[:, m])[:, 0, 0]
        fxm = coeffs.f_x(t, u, x_hat[:, m])[:, 0]
        g = bxm * (p_tilde @ mb) + sxm * (q_m @ ms) - fxm
        p = p_tilde + om[None, :] * g[:, None]
        P0[m] = np.mean(p, axis=0)
        Q0[m] = np.mean(q_m, axis=0)
        G0[m] = np.mean(g)
    return P0, Q0, G0


def second_adjoint_einsum(coeffs, first, kernel, ens, tol=1e-13, max_iter=200) -> dict:
    """The pair field P, its iteration count and distances, for a first-order
    solution ``first`` (an ``AdjointSolution``)."""
    grid = ens.grid
    n = coeffs.dim
    K = kernel.n_nodes
    w, mb, ms = kernel.weights, kernel.mb, kernel.msigma
    (bx,), (sx,), (fxx,) = coeff_tables(coeffs, first.u_hat, grid, ("b_x", "sigma_x", "f_xx"))
    phi = np.broadcast_to(-coeffs.h_xx(np.zeros((1, n)))[0], (K, K, n, n)).copy()

    def gen_map(P):
        left_b = np.einsum("i,ica,...ijcb->...jab", w, mb, P)
        right_b = np.einsum("j,...ijab,jbc->...iac", w, P, mb)
        mid = np.einsum("i,j,ica,...ijcd,jdb->...ab", w, w, ms, P, ms)
        g = np.zeros_like(P)
        g += np.einsum("tca,tjcb->tjab", bx, left_b)[:, None, :, :, :]
        g += np.einsum("tiac,tcb->tiab", right_b, bx)[:, :, None, :, :]
        smid = np.einsum("tca,tcd,tdb->tab", sx, mid, sx)
        g += (smid - fxx)[:, None, None, :, :]
        return g

    P = np.zeros((grid.n_steps + 1,) + phi.shape)
    P[-1] = phi
    distances = []
    for _ in range(max_iter):
        P_new = discounted_sweep(kernel.pair_rates, grid.dt, phi, gen_map(P))
        swapped = np.swapaxes(np.swapaxes(P_new, 1, 2), -2, -1)
        P_new = 0.5 * (P_new + swapped)
        d = s_norm_distance(grid, kernel, P_new - P, 2)
        distances.append(d)
        P = P_new
        if d < tol:
            return {"P": P, "iterations": len(distances), "distances": distances}
    raise RuntimeError("the reference pair solve did not converge")


def hnorm1(values, kernel, beta: float) -> np.ndarray:
    """Weighted norm of a first-order field, shape (..., K, n); the result
    drops the last two axes."""
    return weighted_norm(values, hnorm_weight(kernel, beta, 1))


def hnorm2(values, kernel, beta: float) -> np.ndarray:
    """Weighted norm of a second-order field, shape (..., K, K, n, n)."""
    return weighted_norm(values, hnorm_weight(kernel, beta, 2))


def s_norm_distance(grid, kernel, dP, order: int) -> float:
    """Space-time norm sqrt( sum_m (T-t_m)^alpha dt ||dP_m||^2_{1+alpha} ) of a
    table field (Q == 0), at the kernel's alpha."""
    wts = (grid.T - grid.t) ** kernel.alpha * grid.dt
    norm = hnorm1 if order == 1 else hnorm2
    return float(np.sqrt(np.sum(wts * norm(dP, kernel, 1.0 + kernel.alpha) ** 2)))
