"""The per-step lift (test-only oracle).

This is the lift step as it was before ``simulate.LiftStep`` moved Y once per
block: every step each slab gets a rank-2n dgemm, the decay scaling and the
fixed-order node sum.  The property tests drive it and the blocked lift with
the same forcings and compare states and lift states.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm


@dataclass(frozen=True)
class PerStepLift:
    """Y_g <- diag(e^{-theta dt}) (Y_g + [M_b | M_s] [F_b dt ; F_s dW]) on a
    (G, K n, P) stack, in place; returns X = sum_k w_k Y_k, (G, n, P)."""

    ops: np.ndarray      # (2n, K n) Fortran order, [M_b | M_s]^T
    decay: np.ndarray    # (K n, 1)
    weights: np.ndarray  # (K,)
    dt: float

    @classmethod
    def of(cls, kernel, dt: float) -> "PerStepLift":
        K, n = kernel.n_nodes, kernel.dim
        ops = np.concatenate([kernel.mb.reshape(K * n, n), kernel.msigma.reshape(K * n, n)], 1)
        decay = np.repeat(np.exp(-kernel.nodes * dt), n)[:, None]
        return cls(np.asfortranarray(ops.T), decay, kernel.weights, dt)

    def __call__(self, Y: np.ndarray, Fb, Fs, dW: np.ndarray) -> np.ndarray:
        (G, Kn, P), K = Y.shape, self.weights.size
        n = Kn // K
        drive = np.empty((G, 2 * n, P))
        np.multiply(Fb, self.dt, out=drive[:, :n])
        np.multiply(Fs, np.ascontiguousarray(dW), out=drive[:, n:])
        X = np.empty((G, n, P))
        for g in range(G):
            dgemm(1.0, drive[g].T, self.ops, beta=1.0, c=Y[g].T, overwrite_c=True)
            Y[g] *= self.decay
            np.einsum("k,kip->ip", self.weights, Y[g].reshape(K, n, P), out=X[g])
        return X
