"""Forward Monte Carlo: Brownian ensembles, Volterra convolutions, state and
lift simulation.

All schemes are left-point: the kernel argument in a discrete convolution is
t_m - t_j with j < m, so singular analytic kernels are never evaluated at 0.
The lift recursion applies the decay factor D = diag(e^{-theta dt}) to the
within-step increments as well,

    Y_{m+1} = D (Y_m + M_b F^b_m dt + M_s F^s_m dW_m),

which makes the mu-aggregated lift state X_m - xi_m = sum_k w_k Y_{m,k}
coincide with the direct left-point recursion driven by the atom kernel
K_hat(t) = sum_k w_k e^{-theta_k t} M_k, as an algebraic identity.

``LiftStep`` moves Y once per block of L steps (L = 1 is the recursion
above).  With the drives d_j = (F^b_{m0+j}, F^s_{m0+j} dW_{m0+j}) of a
block that starts at m0, unrolling the recursion gives, for 0 <= i <= L,

    Y_{m0+i} = D^i Y_{m0} + sum_{j<i} D^{i-j} [M_b dt | M_s] d_j,
    X_{m0+i} = xi + rho_i + sum_{j<i} [K_hat_b((i-j) dt) dt | K_hat_s((i-j) dt)] d_j,
    rho_i    = sum_k w_k d_k^i Y_{m0,k}.

So inside a block X comes from the history terms rho_i (one gemm per slab
when the block starts) and a direct convolution with the lag table
K_hat(l dt), l < L; at the block end one rank-2nL gemm over the stored
drives moves Y, and X_{m0+L} is rho_0 of the next block.  The first
identity also serves readers of a mid-block Y, without moving the block.

For L > 1 the lift keeps Y = s o Z: a running scale s, one entry per row
k n + c, shared by every slab, times the stored Z.  A block end sets
s <- d^L s and adds (ops / s)^T drive to Z, so D^L never passes over Z; the
history terms read (s o hist)^T Z and a mid-block read scales Z by d^i o s.
A row whose s falls below ``RESCALE`` = 2^-64 is folded into Z first
(Z_k <- s_k Z_k, s_k <- 1), so |Z| <= 2^64 |Y| and ops / s stays finite even
where d^L underflows to 0.  A one-node lift (L = 1) has no block to save a
pass in and keeps the per-step recursion above, bit for bit.  The
identities are exact; the blocked and the per-step forms differ by rounding
only.  The step dt sits in
the drift operators, not in the drives: where dt is a power of two (every
bundled grid) that is the same arithmetic, bit for bit, as scaling F^b.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .coefficients import CoefficientSet, ControlPath, readers
from .grids import TimeGrid
from .kernels import DiscreteLaplaceKernel
from .rng import normal_matrix


@dataclass(frozen=True)
class BrownianEnsemble:
    grid: TimeGrid
    n_paths: int
    seed: int
    dW: np.ndarray  # (paths, n_steps)

    @cached_property
    def W(self) -> np.ndarray:
        """Brownian paths at grid nodes, (paths, n_steps + 1), W_0 = 0; one
        cumulative sum per ensemble, read-only."""
        out = np.zeros((self.n_paths, self.grid.n_steps + 1))
        np.cumsum(self.dW, axis=1, out=out[:, 1:])
        out.flags.writeable = False
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
    return kernel.eval(which, grid.dt * np.arange(1, grid.n_steps + 1))


def _forcing(coeffs: CoefficientSet, control: ControlPath, grid: TimeGrid) -> Callable:
    """forcing(m, X_m) -> (b, sigma) at step m along the control."""
    b, sigma = readers(coeffs, control, grid, ("b", "sigma"))
    return lambda m, x: (b(m, x), sigma(m, x))


def xi_table(xi, grid: TimeGrid, n: int) -> np.ndarray:
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


def block_steps(n_nodes: int) -> int:
    """Lift block length L for a K-node kernel: min(K, 4).

    A block trades L per-step passes over the K-row slabs for about two,
    plus in-block lag sums that grow with L; four keeps the block buffers
    (3 L rows of P per slab) within a few percent of the stack.  A one-node
    lift (L = 1) is the per-step recursion, bit for bit.
    """
    return min(n_nodes, 4)


RESCALE = 2.0 ** -64   # a row's running scale below this is folded into Z


class LiftStep:
    """The blocked lift over a stack of co-simulated processes.

    The lift state is (G, K n, P) in C order: one contiguous slab per
    co-simulated process, row k n + c holding coordinate c at node k over the
    P paths.  It is moved once per block of L = block_steps(K) steps; inside
    a block the state comes from the atom-kernel lag table (see the module
    docstring).  For L > 1 the stack ``Z`` holds Y / s, with the running
    scale ``s`` (K n,) shared by every slab; for L = 1 it holds Y and ``s``
    is None.  Per step the caller writes the forcings F^b and F^s into
    ``drives()`` and calls ``advance``, which scales F^s by dW; ``state(g)``
    reads a slab's lift state at the current step without moving the block.
    Each slab is computed alone, so no slab's bits depend on how many are
    stacked or advanced.

    A block end that advances only the first G slabs still moves the shared
    scale, and with it the state of every slab past G.  So a slab may sit out
    a block end only while it is all zero (its state stays 0) or before
    ``fork`` overwrites it, and it must not be read in between otherwise.
    The co-simulation keeps to that: the spiked slabs are forked from X_hat
    before they are read, and X1, X2 start from zero.

    The path axis of every buffer is padded to a multiple of 8 with paths
    whose increments and forcings stay 0.  OpenBLAS computes the last rows of
    a gemm with other kernels when 1 to 4 of the 8 are left over, so without
    the padding a path's bits would depend on the path count.
    """

    def __init__(self, kernel: DiscreteLaplaceKernel, dt: float, dW: np.ndarray,
                 n_slabs: int = 1):
        from scipy.linalg.blas import dgemm   # a slow import: load it with the first lift
        self._dgemm = dgemm
        K, n = kernel.n_nodes, kernel.dim
        L = block_steps(K)
        P = dW.shape[0]
        P8 = -(-P // 8) * 8
        self.n, self.L, self.P, self.dW, self.m = n, L, P, dW, 0
        ops = np.concatenate([kernel.mb * dt, kernel.msigma], 2)        # (K, n, 2n)
        opsK = ops.reshape(K * n, 2 * n)                                 # [M_b dt | M_s]
        dpow = np.exp(-np.outer(np.arange(L + 1), kernel.nodes) * dt)   # (L+1, K): d^i
        rows = np.repeat(dpow, n, axis=1)                                # (L+1, K n)
        # block end: s <- d^L s, Z <- Z + (ops / s)^T drive, with ops the
        # sum_j D^{L-j} [M_b dt | M_s] drive_j map.  The per-step lift (L = 1)
        # adds to Y and then decays, as before.
        self.carry = rows[L] if L > 1 else None
        self.decay = None if L > 1 else rows[1, :, None]
        self.s = np.ones(K * n) if L > 1 else None
        lead = rows[L:0:-1] if L > 1 else rows[:1]
        self.ops = np.asfortranarray(np.concatenate([opsK.T * d for d in lead], 0))  # (2n L, K n)
        # history terms rho_i = (w o d^i)^T Y_{m0}, i = 0..L-1, as one (L n, K n) map
        hist = np.zeros((L, n, K, n))
        for c in range(n):
            hist[:, c, :, c] = kernel.weights * dpow[:L]
        self.hist = np.asfortranarray(hist.reshape(L * n, K * n).T)   # (K n, L n)
        # the two maps at the current scale: ops / s and s o hist
        self.ops_s, self.hist_s = np.array(self.ops, order="F"), np.array(self.hist, order="F")
        # lag table K_hat(l dt) = sum_k w_k d_k^l [M_b,k dt | M_s,k], l < L; in-block
        # sums X_{m0+i+1} - rho_{i+1} = lags[i] . drive[:2n(i+1)], i = 0..L-2
        lag = np.einsum("lk,kab->lab", kernel.weights * dpow[:L], ops)   # (L, n, 2n)
        self.lags = [np.concatenate(lag[i + 1:0:-1], 1) for i in range(L - 1)]
        # mid-block reads: Y_{m0+i} = d^i o s o Z_{m0} + reads[i] . drive[:2n i]
        self.rows = rows
        self.reads = [None] + [np.concatenate([opsK * d[:, None] for d in rows[i:0:-1]], 1)
                              for i in range(1, L)]              # (K n, 2n i)
        self.Z = np.zeros((n_slabs, K * n, P8))
        self.drive = np.zeros((n_slabs, 2 * n * L, P8))
        self.rho = np.zeros((n_slabs, L * n, P8))
        self.x = self.rho[:, :n, :P]   # X - xi lands here: rho_0 is only ever an output
        self.dw_block = np.zeros((L, P8))

    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        i, n = self.m % self.L, self.n
        return (self.drive[:, 2 * n * i:2 * n * i + n],
                self.drive[:, 2 * n * i + n:2 * n * (i + 1)])

    def drives(self) -> tuple[np.ndarray, np.ndarray]:
        """The current step's (F_b, F_sigma) slots, each (G, n, P); the caller
        writes the forcings there before ``advance``."""
        return tuple(slot[..., :self.P] for slot in self._slots())

    def advance(self, n_slabs: int | None = None) -> np.ndarray:
        """Advance the first ``n_slabs`` slabs (all by default) one step.

        Returns ``x[:G]``, which holds X_{m+1} - xi until the next call; the
        lift never reads ``x``, so a caller may add xi there in place.  A
        non-finite X raises FloatingPointError naming the step and the first
        bad paths.
        """
        G = self.Z.shape[0] if n_slabs is None else n_slabs
        n, L, m = self.n, self.L, self.m
        i = m % L
        if i == 0:
            nb = min(L, self.dW.shape[1] - m)
            np.copyto(self.dw_block[:nb, :self.P], self.dW[:, m:m + nb].T)
        Fs = self._slots()[1]
        Fs[:G] *= self.dw_block[i]
        if i == L - 1:
            self._end_block(G)
        else:
            X = self.rho[:G, :n]
            np.matmul(self.lags[i], self.drive[:G, :2 * n * (i + 1)], out=X)
            X += self.rho[:G, n * (i + 1):n * (i + 2)]
        self.m = m + 1
        X = self.x[:G]
        if not np.isfinite(X).all():
            bad = np.flatnonzero(~np.isfinite(X).all(axis=(0, 1)))
            raise FloatingPointError(
                f"non-finite state at step {m + 1}; first bad paths {bad[:5].tolist()}")
        return X

    def _end_block(self, G: int) -> None:
        """Move the lift to the block end and fill rho for the next block."""
        dgemm, Z, s = self._dgemm, self.Z, self.s
        folded = ()
        if s is not None:
            s *= self.carry
            folded = np.flatnonzero(s < RESCALE)
            for r in folded:   # in place, one row of the G slabs at a time
                Z[:G, r] *= s[r]
            s[folded] = 1.0
            np.divide(self.ops, s, out=self.ops_s)
            np.multiply(self.hist, s[:, None], out=self.hist_s)
        for g in range(G):
            dgemm(1.0, self.drive[g].T, self.ops_s, beta=1.0, c=Z[g].T, overwrite_c=True)
            if self.decay is not None:
                Z[g] *= self.decay
            dgemm(1.0, Z[g].T, self.hist_s, c=self.rho[g].T, overwrite_c=True)
        tally = _TALLY.get()
        if tally is not None:
            tally["block_steps"] = self.L
            tally["y_updates"] += G
            tally["row_rescales"] += len(folded)

    def state(self, g: int) -> np.ndarray:
        """Slab g's lift state at the current step as a new (K n, P8) array in
        the slab's layout; the padding columns past P are 0."""
        i = self.m % self.L
        scale = self.rows[i] if self.s is None else self.rows[i] * self.s
        Yi = self.Z[g] * scale[:, None]       # d^i o s o Z_{m0} = D^i Y_{m0}
        if i:   # += reads[i] . drive, accumulated in place (the bits of a separate sum)
            self._dgemm(1.0, self.drive[g, :2 * self.n * i].T, self.reads[i].T, beta=1.0,
                        c=Yi.T, overwrite_c=True)
        return Yi

    def fork(self, src: int, dst: slice) -> None:
        """Give slabs ``dst`` the block state of slab ``src`` (lift, stored
        drives and history terms), as if they had advanced alongside it."""
        for buf in (self.Z, self.drive, self.rho):
            buf[dst] = buf[src]


_TALLY: ContextVar[dict | None] = ContextVar("lift_tally", default=None)


@contextmanager
def lift_tally():
    """Count the lift block updates made inside the ``with`` body.

    Yields ``{"y_updates": slab updates, "row_rescales": rows folded into Z,
    "block_steps": L}`` (no ``block_steps`` when no block ended).  A block
    end counts each row whose running scale fell below ``RESCALE`` once,
    however many slabs it advances.
    """
    tally = {"y_updates": 0, "row_rescales": 0}
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


def run_lift(kernel: DiscreteLaplaceKernel, grid: TimeGrid, dW: np.ndarray,
             forcing: Callable, xi: np.ndarray, store_lift: bool = False):
    """Core lift recursion: forcing(m, X_m) -> (Fb, Fs), each (paths, n).

    Returns the state table X (paths, N+1, n) and, when requested, the lift
    table Y step-major, (N+1, K, n, paths), else None.
    """
    paths = dW.shape[0]
    N, K, n = grid.n_steps, kernel.n_nodes, kernel.dim
    lift = LiftStep(kernel, grid.dt, dW)
    X = np.empty((paths, N + 1, n))
    Ytab = np.zeros((N + 1, K * n, paths)) if store_lift else None
    X[:, 0] = xi[0]
    for m in range(N):
        Fb, Fs = forcing(m, X[:, m])
        slot_b, slot_s = lift.drives()
        slot_b[0] = np.transpose(Fb)
        slot_s[0] = np.transpose(Fs)
        X[:, m + 1] = xi[m + 1] + lift.advance()[0].T
        if store_lift:
            Ytab[m + 1] = lift.state(0)[:, :paths]
    return X, None if Ytab is None else Ytab.reshape(N + 1, K, n, paths)


def run_direct(kernel, grid: TimeGrid, dW: np.ndarray, forcing: Callable,
               xi: np.ndarray) -> np.ndarray:
    """Direct left-point Volterra recursion, O(N^2) per path block."""
    paths = dW.shape[0]
    N = grid.n_steps
    kb = _kernel_table(kernel, "b", grid)
    ks = _kernel_table(kernel, "sigma", grid)
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
    xi_tab = xi_table(xi, grid, coeffs.dim)
    forcing = _forcing(coeffs, control, grid)
    if mode == "auto":
        mode = "lift" if isinstance(kernel, DiscreteLaplaceKernel) else "direct"
    if mode == "lift":
        if not isinstance(kernel, DiscreteLaplaceKernel):
            raise TypeError("lift simulation requires an atom kernel")
        X, _ = run_lift(kernel, grid, ens.dW, forcing, xi_tab)
        return X
    if mode == "direct":
        return run_direct(kernel, grid, ens.dW, forcing, xi_tab)
    raise ValueError("mode must be 'auto', 'lift' or 'direct'")


def lift_along(coeffs: CoefficientSet, control: ControlPath,
               kernel: DiscreteLaplaceKernel, X: np.ndarray,
               ens: BrownianEnsemble) -> np.ndarray:
    """The lift of a given state path X (paths, N+1, n): Y driven by the
    forcings at X, step-major (N+1, K, n, paths).  Where X is
    ``simulate_sve``'s state of this control and ensemble, Y equals the lift
    ``run_lift`` stores along it bit for bit, whatever the forcing term xi.
    The coefficients' self-test runs first, as in ``simulate_sve``: the
    forcing tables rest on their tags."""
    coeffs.self_test()
    grid = ens.grid
    forcing = _forcing(coeffs, control, grid)
    _, Y = run_lift(kernel, grid, ens.dW, lambda m, _x: forcing(m, X[:, m]),
                    np.zeros((grid.n_steps + 1, coeffs.dim)), store_lift=True)
    return Y


def cnorm(states: np.ndarray, p: float = 2.0) -> float:
    """sup over grid times of the Monte Carlo p-th moment root E[|X_t|^p]^{1/p}
    of a (paths, N+1, n) state table."""
    if p < 2:
        raise ValueError("p must be >= 2")
    X = np.asarray(states, dtype=float)
    if X.size == 0:
        raise ValueError("empty ensemble")
    mag = np.sqrt(np.sum(X * X, axis=2))
    return float(np.max(np.mean(mag ** p, axis=0) ** (1.0 / p)))
