"""Time grids, decay-rate grids and weighted L2 norms.

First-order fields live on the decay-rate grid {theta_i} against the measure
nu1 = r(theta) * mu-weight with r(theta) = min(1, theta^{-1/2}); second-order
fields live on the product grid against nu1 x nu1.  The weighted norm of
order beta multiplies |psi|^2 by (1 + varpi)^beta, where varpi = theta on the
first-order grid and varpi = theta_1 + theta_2 on the product grid.
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


def decay_weight(theta: np.ndarray) -> np.ndarray:
    """r(theta) = min(1, theta^{-1/2}), with r(0) = 1."""
    theta = np.asarray(theta, dtype=float)
    out = np.ones_like(theta)
    pos = theta > 1.0
    out[pos] = theta[pos] ** -0.5
    return out


@dataclass(frozen=True)
class ThetaGrid:
    """Decay-rate nodes with their mu-weights, shared with the kernel."""

    nodes: np.ndarray      # (K,) nonnegative, strictly increasing
    mu_weights: np.ndarray  # (K,) positive

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.mu_weights, dtype=float)
        if nodes.ndim != 1 or w.shape != nodes.shape:
            raise ValueError("nodes and mu_weights must be 1-d and congruent")
        if np.any(nodes < 0) or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be nonnegative and strictly increasing")
        if np.any(w <= 0):
            raise ValueError("mu_weights must be positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "mu_weights", w)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def r(self) -> np.ndarray:
        return decay_weight(self.nodes)

    @property
    def nu1(self) -> np.ndarray:
        """First-order measure weights r(theta_i) * w_i."""
        return self.r * self.mu_weights

    def varpi2(self) -> np.ndarray:
        """(K, K) matrix theta_i + theta_j."""
        return self.nodes[:, None] + self.nodes[None, :]

    def nu2(self) -> np.ndarray:
        """(K, K) product measure weights nu1_i * nu1_j."""
        nu = self.nu1
        return nu[:, None] * nu[None, :]


def hnorm_weight(grid: ThetaGrid, beta: float, order: int) -> np.ndarray:
    """(1 + varpi)^beta times the measure: (K,) for order 1, (K, K) for order 2."""
    if order == 1:
        return (1.0 + grid.nodes) ** beta * grid.nu1
    return (1.0 + grid.varpi2()) ** beta * grid.nu2()


def weighted_norm(values: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sqrt(sum weight |psi|^2) of a field of order k = weight.ndim, shape
    (..., K^k, n^k); the result drops the last 2k axes."""
    v = np.asarray(values, dtype=float)
    axes = tuple(range(-weight.ndim, 0))
    sq = np.sum(v * v, axis=axes)
    return np.sqrt(np.sum(sq * weight, axis=axes))


def hnorm1(values: np.ndarray, grid: ThetaGrid, beta: float) -> np.ndarray:
    """Weighted norm of a first-order field.

    ``values`` has shape (..., K, n); the result drops the last two axes.
    """
    return weighted_norm(values, hnorm_weight(grid, beta, 1))


def hnorm2(values: np.ndarray, grid: ThetaGrid, beta: float) -> np.ndarray:
    """Weighted norm of a second-order field, shape (..., K, K, n, n)."""
    return weighted_norm(values, hnorm_weight(grid, beta, 2))
