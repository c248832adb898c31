"""The time grid and the weighted L2 norms of fields on the decay grid.

The decay grid is the kernel's atom set: first-order fields live on its
nodes {theta_i} against the measure nu1 = r(theta) * mu-weight with
r(theta) = min(1, theta^{-1/2}); second-order fields live on the node pairs
against nu1 x nu1.  The weighted norm of order beta multiplies |psi|^2 by
(1 + varpi)^beta, where varpi = theta on the nodes and varpi = theta_1 +
theta_2 on the node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j*dt on [0, T]."""

    T: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if not (self.T > 0):
            raise ValueError("horizon T must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @cached_property
    def t(self) -> np.ndarray:
        """Grid nodes, built once per grid and read-only."""
        t = np.linspace(0.0, self.T, self.n_steps + 1)
        t.flags.writeable = False
        return t

    def index_of(self, time: float) -> int:
        j = int(round(time / self.dt))
        if abs(j * self.dt - time) > 1e-9 * max(1.0, self.T):
            raise ValueError(f"time {time} is not a grid node")
        return j


def hnorm_weight(kernel, beta: float, order: int) -> np.ndarray:
    """(1 + varpi)^beta times the measure on the kernel's nodes: (K,) for
    order 1, (K, K) for order 2."""
    r = np.ones_like(kernel.nodes)          # r(theta) = min(1, theta^{-1/2}), r(0) = 1
    pos = kernel.nodes > 1.0
    r[pos] = kernel.nodes[pos] ** -0.5
    nu1 = r * kernel.weights
    if order == 1:
        return (1.0 + kernel.nodes) ** beta * nu1
    return (1.0 + kernel.pair_rates) ** beta * (nu1[:, None] * nu1[None, :])


def weighted_norm(values: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sqrt(sum weight |psi|^2) of a field of order k = weight.ndim, shape
    (..., K^k, n^k); the result drops the last 2k axes."""
    v = np.asarray(values, dtype=float)
    axes = tuple(range(-weight.ndim, 0))
    sq = np.sum(v * v, axis=axes)
    return np.sqrt(np.sum(sq * weight, axis=axes))
