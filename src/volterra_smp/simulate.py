"""Forward Monte Carlo: Brownian ensembles, Volterra convolutions, state and
lift simulation.

All schemes are left-point: the kernel argument in a discrete convolution is
t_m - t_j with j < m, so singular analytic kernels are never evaluated at 0.
The lift recursion applies the decay factor exp(-theta*dt) to the within-step
increments as well,

    Y_{m+1}(theta) = e^{-theta dt} (Y_m(theta) + M_b F^b_m dt + M_s F^s_m dW_m),

which makes the mu-aggregated lift state coincide with the direct left-point
recursion driven by the atom kernel K_hat, as an algebraic identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.blas import dgemm

from .coefficients import CoefficientSet, ControlPath
from .grids import TimeGrid
from .kernels import DiscreteLaplaceKernel, kernel_eval
from .rng import normal_matrix


@dataclass(frozen=True)
class BrownianEnsemble:
    grid: TimeGrid
    n_paths: int
    seed: int
    dW: np.ndarray  # (paths, n_steps)

    @property
    def W(self) -> np.ndarray:
        """Brownian paths at grid nodes, (paths, n_steps + 1), W_0 = 0."""
        out = np.zeros((self.n_paths, self.grid.n_steps + 1))
        np.cumsum(self.dW, axis=1, out=out[:, 1:])
        return out

    def first_paths(self, n_paths: int) -> "BrownianEnsemble":
        """The first ``n_paths`` paths as a view; path p is the same stream in
        every ensemble with this seed, so this equals a fresh sample."""
        if not 1 <= n_paths <= self.n_paths:
            raise ValueError(f"need 1 <= n_paths <= {self.n_paths}, got {n_paths}")
        return BrownianEnsemble(grid=self.grid, n_paths=n_paths, seed=self.seed,
                                dW=self.dW[:n_paths])


def sample_brownian(grid: TimeGrid, n_paths: int, seed: int) -> BrownianEnsemble:
    """Counter-based Brownian increments, reproducible per (seed, path, step)."""
    dW = normal_matrix(seed, n_paths, grid.n_steps)
    dW *= np.sqrt(grid.dt)  # in place: one (paths, n_steps) table at a time
    agg = abs(float(np.mean(dW))) * np.sqrt(n_paths * grid.n_steps / grid.dt)
    if agg > 5.0:
        raise RuntimeError(f"increment sanity check failed: aggregate mean {agg:.2f} sigma")
    return BrownianEnsemble(grid=grid, n_paths=n_paths, seed=seed, dW=dW)


def _kernel_table(kernel, which: str, grid: TimeGrid) -> np.ndarray:
    """K(j*dt) for j = 1..n_steps, shape (n_steps, n, n)."""
    ts = grid.dt * np.arange(1, grid.n_steps + 1)
    if isinstance(kernel, DiscreteLaplaceKernel):
        return kernel.eval(which, ts)
    return np.asarray([kernel_eval(kernel, which, t) for t in ts])


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


def _forcing_from_controls(coeffs: CoefficientSet, control: ControlPath, grid: TimeGrid):
    def forcing(m: int, x: np.ndarray):
        t = m * grid.dt
        u = control.at(m)
        return coeffs.b(t, u, x), coeffs.sigma(t, u, x)
    return forcing


def _xi_table(xi, grid: TimeGrid, n: int) -> np.ndarray:
    """Forcing term as an (N+1, n) deterministic table."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim == 0:
        return np.full((grid.n_steps + 1, n), float(xi))
    if xi.ndim == 1:
        if xi.shape[0] == n:
            return np.tile(xi, (grid.n_steps + 1, 1))
        if n == 1 and xi.shape[0] == grid.n_steps + 1:
            return xi[:, None]
        raise ValueError("forcing table must be a constant, an (n,) vector "
                         "or an (n_steps + 1,) table")
    if xi.shape != (grid.n_steps + 1, n):
        raise ValueError("forcing table must have shape (n_steps + 1, n)")
    return xi


@dataclass(frozen=True)
class LiftStep:
    """The lift step, applied in place to a stack Y of lift states.

    Y is (G, K n, P) in C order: one contiguous slab per co-simulated process,
    row k n + i holding coordinate i at node k over the P paths.  Each slab in
    turn gets one in-place rank-2n dgemm on its (P, K n) Fortran view, a row
    scaling, Y_g <- diag(e^{-theta dt}) (Y_g + [M_b | M_s] [F_b dt ; F_s dW]),
    and the fixed-order einsum reduction X_g = sum_k w_k Y_{g,k}, so no slab's
    bits depend on how many are stacked.  Returns X, (G, n, P).  A non-finite
    X raises FloatingPointError naming the step and the first bad paths.
    """

    ops: np.ndarray      # (2n, K n) Fortran order, [M_b | M_s]^T
    decay: np.ndarray    # (K n, 1)
    weights: np.ndarray  # (K,)
    dt: float

    @classmethod
    def of(cls, kernel: DiscreteLaplaceKernel, dt: float) -> "LiftStep":
        K, n = kernel.n_nodes, kernel.dim
        ops = np.concatenate([kernel.mb.reshape(K * n, n), kernel.msigma.reshape(K * n, n)], 1)
        decay = np.repeat(np.exp(-kernel.nodes * dt), n)[:, None]
        return cls(np.asfortranarray(ops.T), decay, kernel.weights, dt)

    def __call__(self, Y: np.ndarray, Fb, Fs, dW: np.ndarray, step: int) -> np.ndarray:
        """Advance Y in place; Fb, Fs broadcast to (G, n, P), dW is the (P,) increments."""
        (G, Kn, P), K = Y.shape, self.weights.size
        n = Kn // K
        drive = np.empty((G, 2 * n, P))
        np.multiply(Fb, self.dt, out=drive[:, :n])
        np.multiply(Fs, np.ascontiguousarray(dW), out=drive[:, n:])  # read the strided column once
        X = np.empty((G, n, P))
        for g in range(G):
            dgemm(1.0, drive[g].T, self.ops, beta=1.0, c=Y[g].T, overwrite_c=True)
            Y[g] *= self.decay
            np.einsum("k,kip->ip", self.weights, Y[g].reshape(K, n, P), out=X[g])
        if not np.isfinite(X).all():
            bad = np.flatnonzero(~np.isfinite(X).all(axis=(0, 1)))
            raise FloatingPointError(
                f"non-finite state at step {step}; first bad paths {bad[:5].tolist()}")
        return X


def run_lift(kernel: DiscreteLaplaceKernel, grid: TimeGrid, dW: np.ndarray,
             forcing: Callable, xi: np.ndarray, store_lift: bool = False):
    """Core lift recursion: forcing(m, X_m) -> (Fb, Fs), each (paths, n).

    Returns the state table X (paths, N+1, n) and the lift table Y
    (paths, N+1, K, n) when requested, else None.
    """
    paths = dW.shape[0]
    N, K, n = grid.n_steps, kernel.n_nodes, kernel.dim
    step = LiftStep.of(kernel, grid.dt)
    Y = np.zeros((1, K * n, paths))
    X = np.empty((paths, N + 1, n))
    Ytab = np.zeros((paths, N + 1, K, n)) if store_lift else None
    X[:, 0] = xi[0]
    for m in range(N):
        Fb, Fs = forcing(m, X[:, m])
        X[:, m + 1] = xi[m + 1] + step(Y, np.transpose(Fb), np.transpose(Fs), dW[:, m], m + 1)[0].T
        if store_lift:
            Ytab[:, m + 1] = Y[0].T.reshape(paths, K, n)
    return X, Ytab


def run_direct(kernel, which_pair: tuple[str, str], grid: TimeGrid, dW: np.ndarray,
               forcing: Callable, xi: np.ndarray) -> np.ndarray:
    """Direct left-point Volterra recursion, O(N^2) per path block."""
    paths = dW.shape[0]
    N = grid.n_steps
    kb = _kernel_table(kernel, which_pair[0], grid)
    ks = _kernel_table(kernel, which_pair[1], grid)
    n = kb.shape[1]
    X = np.empty((paths, N + 1, n))
    X[:, 0] = xi[0]
    fb = np.empty((paths, N, n))
    fs = np.empty((paths, N, n))
    for m in range(N):
        Fb, Fs = forcing(m, X[:, m])
        fb[:, m] = Fb * grid.dt
        fs[:, m] = Fs * dW[:, m, None]
        X[:, m + 1] = (xi[m + 1]
                       + np.einsum("tij,ptj->pi", kb[m::-1], fb[:, :m + 1])
                       + np.einsum("tij,ptj->pi", ks[m::-1], fs[:, :m + 1]))
        if not np.all(np.isfinite(X[:, m + 1])):
            raise FloatingPointError(f"non-finite state at step {m + 1}")
    return X


def simulate_sve(coeffs: CoefficientSet, control: ControlPath, kernel, xi,
                 ens: BrownianEnsemble, mode: str = "auto",
                 self_test: bool = True) -> np.ndarray:
    """Simulate the controlled state equation; returns X (paths, N+1, n).

    mode "lift" uses the atom recursion (O(N*K) per path; atoms required),
    "direct" the O(N^2) convolution (works for analytic kernels too), "auto"
    picks the lift whenever the kernel is an atom representation.
    """
    if self_test:
        coeffs.self_test()
    grid = ens.grid
    xi_tab = _xi_table(xi, grid, coeffs.dim)
    forcing = _forcing_from_controls(coeffs, control, grid)
    if mode == "auto":
        mode = "lift" if isinstance(kernel, DiscreteLaplaceKernel) else "direct"
    if mode == "lift":
        if not isinstance(kernel, DiscreteLaplaceKernel):
            raise TypeError("lift simulation requires an atom kernel")
        X, _ = run_lift(kernel, grid, ens.dW, forcing, xi_tab)
        return X
    if mode == "direct":
        return run_direct(kernel, ("b", "sigma"), grid, ens.dW, forcing, xi_tab)
    raise ValueError("mode must be 'auto', 'lift' or 'direct'")


def simulate_lift(coeffs: CoefficientSet, control: ControlPath,
                  kernel: DiscreteLaplaceKernel, xi, ens: BrownianEnsemble,
                  self_test: bool = True):
    """Simulate the lift fields; returns (Y, X) with Y (paths, N+1, K, n)."""
    if not isinstance(kernel, DiscreteLaplaceKernel):
        raise TypeError("lift simulation requires an atom kernel")
    if self_test:
        coeffs.self_test()
    grid = ens.grid
    xi_tab = _xi_table(xi, grid, coeffs.dim)
    forcing = _forcing_from_controls(coeffs, control, grid)
    X, Y = run_lift(kernel, grid, ens.dW, forcing, xi_tab, store_lift=True)
    return Y, X


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


def cnorm(states: np.ndarray, p: float = 2.0) -> float:
    """sup over grid times of the Monte Carlo p-th moment root E[|X_t|^p]^{1/p}."""
    if p < 2:
        raise ValueError("p must be >= 2")
    X = np.asarray(states, dtype=float)
    if X.size == 0:
        raise ValueError("empty ensemble")
    if X.ndim == 2:
        X = X[:, :, None]
    mag = np.sqrt(np.sum(X * X, axis=2))
    return float(np.max(np.mean(mag ** p, axis=0) ** (1.0 / p)))
