"""Reference forms of the forward layer (test-only oracles).

``PerStepLift`` is the lift step as it was before ``simulate.LiftStep`` moved
Y once per block: every step each slab gets a rank-2n dgemm, the decay
scaling and the fixed-order node sum.  Like the blocked lift it carries dt in
the drift operators, so the two take the same drives.  The property tests drive it and the
blocked lift with the same forcings and compare states and lift states.

``volterra_convolve`` is the discrete Volterra convolution of a per-path
table and ``euler_maruyama`` the classical integrator with no kernel; the
tests compare simulated states and expansion processes against them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from volterra_smp.coefficients import CoefficientSet, ControlPath
from volterra_smp.grids import TimeGrid
from volterra_smp.simulate import BrownianEnsemble, _kernel_table


@dataclass(frozen=True)
class PerStepLift:
    """Y_g <- diag(e^{-theta dt}) (Y_g + [M_b dt | M_s] [F_b ; F_s dW]) on a
    (G, K n, P) stack, in place; returns X = sum_k w_k Y_k, (G, n, P)."""

    ops: np.ndarray      # (2n, K n) Fortran order, [M_b dt | M_s]^T
    decay: np.ndarray    # (K n, 1)
    weights: np.ndarray  # (K,)

    @classmethod
    def of(cls, kernel, dt: float) -> "PerStepLift":
        K, n = kernel.n_nodes, kernel.dim
        ops = np.concatenate([(kernel.mb * dt).reshape(K * n, n),
                              kernel.msigma.reshape(K * n, n)], 1)
        decay = np.repeat(np.exp(-kernel.nodes * dt), n)[:, None]
        return cls(np.asfortranarray(ops.T), decay, kernel.weights)

    def __call__(self, Y: np.ndarray, Fb, Fs, dW: np.ndarray) -> np.ndarray:
        (G, Kn, P), K = Y.shape, self.weights.size
        n = Kn // K
        drive = np.empty((G, 2 * n, P))
        drive[:, :n] = Fb
        np.multiply(Fs, np.ascontiguousarray(dW), out=drive[:, n:])
        X = np.empty((G, n, P))
        for g in range(G):
            dgemm(1.0, drive[g].T, self.ops, beta=1.0, c=Y[g].T, overwrite_c=True)
            Y[g] *= self.decay
            np.einsum("k,kip->ip", self.weights, Y[g].reshape(K, n, P), out=X[g])
        return X


def volterra_convolve(kernel, which: str, integrand: np.ndarray, mode: str,
                      ens: BrownianEnsemble | None = None,
                      grid: TimeGrid | None = None) -> np.ndarray:
    """Discrete Volterra convolution of a per-path table.

    ``integrand`` has shape (paths, N+1, n) (or (paths, N+1) for n = 1).
    Lebesgue mode returns sum_{j<m} K(t_m - t_j) g_j dt; Ito mode returns
    sum_{j<m} K(t_m - t_j) g_j dW_j.
    """
    if mode not in ("lebesgue", "ito"):
        raise ValueError("mode must be 'lebesgue' or 'ito'")
    if mode == "ito" and ens is None:
        raise ValueError("ito mode requires a Brownian ensemble")
    if grid is None:
        if ens is None:
            raise ValueError("pass a grid or an ensemble")
        grid = ens.grid
    g = np.asarray(integrand, dtype=float)
    if g.ndim == 2:
        g = g[:, :, None]
    paths, n_nodes, n = g.shape
    N = grid.n_steps
    if n_nodes != N + 1:
        raise ValueError("integrand must be defined on the full grid")
    ktab = _kernel_table(kernel, which, grid)  # (N, n, n)
    if mode == "lebesgue":
        weights = g * grid.dt
    else:
        weights = g[:, :N] * ens.dW[:, :, None]
    out = np.zeros((paths, N + 1, n))
    for m in range(1, N + 1):
        # kernel argument t_m - t_j = (m - j) dt for j = 0..m-1
        out[:, m] = np.einsum("tij,ptj->pi", ktab[m - 1::-1], weights[:, :m])
    return out


def euler_maruyama(coeffs: CoefficientSet, control: ControlPath, x0, ens: BrownianEnsemble) -> np.ndarray:
    """Reference classical Euler-Maruyama integrator (no kernels)."""
    grid = ens.grid
    paths = ens.n_paths
    n = coeffs.dim
    X = np.empty((paths, grid.n_steps + 1, n))
    X[:, 0] = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (paths, n))
    for m in range(grid.n_steps):
        t = m * grid.dt
        u = control.at(m)
        X[:, m + 1] = (X[:, m]
                       + coeffs.b(t, u, X[:, m]) * grid.dt
                       + coeffs.sigma(t, u, X[:, m]) * ens.dW[:, m, None])
    return X
