"""Completely monotone convolution kernels and their finite-atom lifts.

A kernel pair (K_b, K_sigma) is represented either analytically (fractional,
constant, exponential) or by a finite atom set: decay rates theta_i with
mu-weights w_i and matrix factors M_b(theta_i), M_sigma(theta_i), so that

    K_hat(t) = sum_i w_i * exp(-theta_i * t) * M(theta_i).

The fractional builder discretizes mu(dtheta) = theta^{-gamma} dtheta on a
geometric grid with exact per-cell mass.  Matrix factors carry the cell
mu-average of the analytic density theta^{gamma-beta}/(G(beta)G(1-beta)),
which keeps the kernel mass of every cell exact (the first cell absorbs the
full singular tail below theta_min); pointwise node evaluation of the density
loses several percent of kernel mass at the singular end and cannot reach the
percent-level accuracy targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AnalyticKernel",
    "DiscreteLaplaceKernel",
    "build_fractional_lift",
    "constant_kernel",
    "exponential_kernel",
    "knorm_eps",
    "quadrature_error",
]


@dataclass(frozen=True)
class AnalyticKernel:
    """Closed-form scalar kernel profile times a fixed matrix factor.

    family:
      - "fractional": k(t) = t^(beta-1) / G(beta), beta in (0, 1)
      - "constant":   k(t) = 1
      - "exponential": k(t) = exp(-lam * t), lam > 0
    """

    family: str
    beta: float | None = None
    lam: float | None = None
    factor: np.ndarray = field(default_factory=lambda: np.eye(1))

    def __post_init__(self):
        object.__setattr__(self, "factor", np.atleast_2d(np.asarray(self.factor, dtype=float)))
        if self.family == "fractional":
            if self.beta is None or not (0.0 < self.beta < 1.0):
                raise ValueError("fractional kernel needs beta in (0, 1)")
        elif self.family == "exponential":
            if self.lam is None or self.lam <= 0:
                raise ValueError("exponential kernel needs lam > 0")
        elif self.family != "constant":
            raise ValueError(f"unknown kernel family {self.family!r}")

    def scalar(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.family == "fractional":
            if np.any(t <= 0):
                raise ValueError("fractional kernel is singular at t = 0")
            return t ** (self.beta - 1.0) / math.gamma(self.beta)
        if self.family == "constant":
            return np.ones_like(t)
        return np.exp(-self.lam * t)

    def eval(self, which: str, t) -> np.ndarray:
        """k(t) times the factor: (n, n) for a time, (T, n, n) for an array of
        times.  ``which`` is unused: one profile serves both channels."""
        return np.multiply.outer(self.scalar(t), self.factor)

    def analytic(self, which: str) -> "AnalyticKernel":
        return self


@dataclass(frozen=True)
class DiscreteLaplaceKernel:
    """Finite-atom representation of the kernel pair (K_b, K_sigma).

    Its atoms are also the decay grid of the backward fields: a first-order
    field lives on ``nodes`` with measure ``weights``, a second-order one on
    the node pairs, at ``pair_rates``; ``alpha`` sets their norm weights.
    """

    nodes: np.ndarray     # (K,) decay rates, nonnegative, strictly increasing
    weights: np.ndarray   # (K,) positive mu-masses
    mb: np.ndarray        # (K, n, n) factors of K_b
    msigma: np.ndarray    # (K, n, n) factors of K_sigma
    alpha: float = 0.0
    analytic_b: AnalyticKernel | None = None
    analytic_sigma: AnalyticKernel | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        mb = np.asarray(self.mb, dtype=float)
        ms = np.asarray(self.msigma, dtype=float)
        if nodes.ndim != 1:
            raise ValueError("nodes must be 1-d")
        if np.any(~np.isfinite(nodes)) or np.any(nodes < 0):
            raise ValueError("nodes must be finite and nonnegative")
        if nodes.size > 1 and np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if w.shape != nodes.shape or np.any(w <= 0) or np.any(~np.isfinite(w)):
            raise ValueError("weights must be positive, finite, one per node")
        if mb.ndim == 1:
            mb = mb[:, None, None]
        if ms.ndim == 1:
            ms = ms[:, None, None]
        if mb.shape[0] != nodes.size or ms.shape != mb.shape or mb.shape[1] != mb.shape[2]:
            raise ValueError("matrix factors must have shape (K, n, n)")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mb", mb)
        object.__setattr__(self, "msigma", ms)

    @property
    def dim(self) -> int:
        return self.mb.shape[1]

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def pair_rates(self) -> np.ndarray:
        """(K, K) decay rates theta_i + theta_j of the node pairs."""
        return self.nodes[:, None] + self.nodes[None, :]

    def factors(self, which: str) -> np.ndarray:
        if which == "b":
            return self.mb
        if which == "sigma":
            return self.msigma
        raise ValueError("which must be 'b' or 'sigma'")

    def analytic(self, which: str) -> AnalyticKernel | None:
        return self.analytic_b if which == "b" else self.analytic_sigma

    def eval(self, which: str, t) -> np.ndarray:
        """K_hat(t) as an (n, n) matrix, or (T, n, n) for an array of times."""
        m = self.factors(which)
        t = np.asarray(t, dtype=float)
        damp = np.exp(-np.multiply.outer(t, self.nodes))  # (..., K)
        out = np.einsum("...k,k,kij->...ij", damp, self.weights, m)
        return out

    def step_integrated_eval(self, which: str, t, dt: float) -> np.ndarray:
        """Exact integral of K_hat over [t, t + dt], entrywise.

        Uses w_i * (1 - exp(-theta_i dt)) / theta_i * exp(-theta_i t), with the
        theta = 0 factor replaced by its limit dt.
        """
        m = self.factors(which)
        t = np.asarray(t, dtype=float)
        omega = step_decay_weight(self.nodes, dt)
        damp = np.exp(-np.multiply.outer(t, self.nodes))
        return np.einsum("...k,k,k,kij->...ij", damp, omega, self.weights, m)


def step_decay_weight(theta: np.ndarray, dt: float) -> np.ndarray:
    """(1 - exp(-theta*dt)) / theta with the limit dt at theta = 0."""
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, dt, dtype=float)
    pos = theta > 0
    out[pos] = -np.expm1(-theta[pos] * dt) / theta[pos]
    return out


def sweep_factors(rates, dt: float, n_tail: int = 0) -> tuple:
    """(e^{-rate dt}, omega(rate)) of ``discounted_sweep``, each shaped to
    broadcast over ``n_tail`` trailing (state) axes."""
    rates = np.asarray(rates, dtype=float)
    shape = rates.shape + (1,) * n_tail
    return np.exp(-rates * dt).reshape(shape), step_decay_weight(rates, dt).reshape(shape)


def discounted_sweep(rates, dt: float, terminal, gen: np.ndarray, factors=None) -> np.ndarray:
    """Backward table p_N = terminal, p_m = e^{-rate dt} p_{m+1} + omega(rate) gen_m.

    ``rates`` is a scalar, the K nodes or the K x K node pairs; it indexes the
    leading axes of a row, and any trailing (state) axes share its rate.
    ``gen`` is the (N+1, ...) generator table (its last row is unused) and
    ``terminal`` broadcasts to one row.  A caller that sweeps at one rate
    table many times may pass its ``sweep_factors`` as ``factors``.  Returns
    the (N+1, ...) table.
    """
    gen = np.asarray(gen, dtype=float)
    if factors is None:
        factors = sweep_factors(rates, dt, gen.ndim - 1 - np.ndim(rates))
    dec, om = factors
    out = np.empty(gen.shape)
    np.multiply(om, gen[:-1], out=out[:-1])   # every omega(rate) gen_m in one call
    out[-1] = terminal
    for m in range(gen.shape[0] - 2, -1, -1):
        out[m] += dec * out[m + 1]            # omega(rate) gen_m + e^{-rate dt} p_{m+1}
    return out


def constant_kernel(matrix=None, alpha: float = 0.0) -> DiscreteLaplaceKernel:
    """Single atom at theta = 0: K(t) = matrix (default I_1) for all t (classical case)."""
    m = np.eye(1) if matrix is None else np.atleast_2d(np.asarray(matrix, dtype=float))
    return DiscreteLaplaceKernel(
        nodes=np.array([0.0]),
        weights=np.array([1.0]),
        mb=m[None],
        msigma=m[None],
        alpha=alpha,
        analytic_b=AnalyticKernel("constant", factor=m),
        analytic_sigma=AnalyticKernel("constant", factor=m),
    )


def exponential_kernel(lam: float, alpha: float = 0.0) -> DiscreteLaplaceKernel:
    """Single scalar atom at theta = lam: K(t) = exp(-lam t)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    m = np.eye(1)
    return DiscreteLaplaceKernel(
        nodes=np.array([float(lam)]),
        weights=np.array([1.0]),
        mb=m[None],
        msigma=m[None],
        alpha=alpha,
        analytic_b=AnalyticKernel("exponential", lam=lam, factor=m),
        analytic_sigma=AnalyticKernel("exponential", lam=lam, factor=m),
    )


def _power_cell_integral(a: float, b: float, s: float) -> float:
    """Integral of theta^{-s} over [a, b], s < 1, a >= 0."""
    if s >= 1.0:
        raise ValueError("exponent must satisfy s < 1 for an integrable cell")
    return (b ** (1.0 - s) - a ** (1.0 - s)) / (1.0 - s)


def gamma_interval(beta_b: float, beta_sigma: float, alpha: float) -> tuple[float, float]:
    """Admissible (open) interval for the mu-density exponent gamma."""
    hi = min(alpha + 2.0 * beta_b - 0.5, alpha + 2.0 * beta_sigma - 1.5, 1.0)
    return 0.5, hi


def build_fractional_lift(
    beta_b: float,
    beta_sigma: float,
    gamma: float | None,
    theta_min: float,
    theta_max: float,
    n_nodes: int,
    alpha: float = 1.0 / 3.0,
) -> DiscreteLaplaceKernel:
    """Finite-atom approximation of the fractional kernel pair.

    Nodes are geometric, theta_i = theta_min * rho^i; cell i is the geometric
    band around node i, with the first cell extended down to 0 so that no
    singular mass is lost.  Weights are exact cell masses of
    theta^{-gamma} dtheta and the matrix factors are cell mu-averages of the
    fractional densities, for scalar state.
    """
    if not (0.0 < beta_b < 1.0):
        raise ValueError("constraint violated: 0 < beta_b < 1")
    if not (0.5 < beta_sigma < 1.0):
        raise ValueError("constraint violated: 1/2 < beta_sigma < 1")
    lo, hi = gamma_interval(beta_b, beta_sigma, alpha)
    if gamma is None:
        if hi <= lo:
            raise ValueError(
                f"constraint violated: admissible gamma interval ({lo}, {hi:.6g}) is empty "
                f"for alpha={alpha}, beta_b={beta_b}, beta_sigma={beta_sigma}"
            )
        gamma = 0.5 * (lo + hi)
    if not (lo < gamma < hi):
        raise ValueError(
            f"constraint violated: gamma must lie in ({lo}, {hi:.6g}) "
            f"for alpha={alpha}, beta_b={beta_b}, beta_sigma={beta_sigma}"
        )
    if theta_min <= 0:
        raise ValueError("constraint violated: theta_min > 0")
    if theta_max <= theta_min:
        raise ValueError("constraint violated: theta_max > theta_min")
    if n_nodes < 2:
        raise ValueError("constraint violated: n_nodes >= 2")

    rho = (theta_max / theta_min) ** (1.0 / (n_nodes - 1))
    nodes = theta_min * rho ** np.arange(n_nodes)
    edges = np.empty(n_nodes + 1)
    edges[1:-1] = nodes[:-1] * np.sqrt(rho)
    edges[0] = 0.0
    edges[-1] = nodes[-1] * np.sqrt(rho)
    if not np.isfinite(edges[-1]):
        raise ValueError(f"constraint violated: the range theta_min={theta_min} to "
                         f"theta_max={theta_max} overflows on {n_nodes} nodes")
    if np.any(np.diff(nodes) <= 0):
        raise ValueError(f"constraint violated: the range theta_min={theta_min} to "
                         f"theta_max={theta_max} is too narrow for {n_nodes} distinct nodes")

    weights = np.empty(n_nodes)
    avg_b = np.empty(n_nodes)
    avg_s = np.empty(n_nodes)
    cb = 1.0 / (math.gamma(beta_b) * math.gamma(1.0 - beta_b))
    cs = 1.0 / (math.gamma(beta_sigma) * math.gamma(1.0 - beta_sigma))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n_nodes):
            a, b = edges[i], edges[i + 1]
            weights[i] = _power_cell_integral(a, b, gamma)
            avg_b[i] = cb * _power_cell_integral(a, b, beta_b) / weights[i]
            avg_s[i] = cs * _power_cell_integral(a, b, beta_sigma) / weights[i]
    if not (np.all(weights > 0) and np.all(np.isfinite([weights, avg_b, avg_s]))):
        raise ValueError(f"constraint violated: gamma={gamma} on the range theta_min="
                         f"{theta_min} to theta_max={theta_max} gives cell masses or "
                         f"factor averages that are not positive and finite")

    eye = np.eye(1)
    return DiscreteLaplaceKernel(
        nodes=nodes,
        weights=weights,
        mb=avg_b[:, None, None] * eye[None],
        msigma=avg_s[:, None, None] * eye[None],
        alpha=alpha,
        analytic_b=AnalyticKernel("fractional", beta=beta_b, factor=eye),
        analytic_sigma=AnalyticKernel("fractional", beta=beta_sigma, factor=eye),
    )


def _frobenius_profile(kernel, which: str):
    """Scalar t -> |K(t)|_F together with an optional closed-form tag."""
    ana = kernel.analytic(which)
    if ana is None:
        def profile(t):
            return np.sqrt(np.sum(kernel.eval(which, t) ** 2, axis=(-2, -1)))
        return profile, None
    fnorm = np.sqrt(np.sum(ana.factor ** 2))
    return (lambda t: ana.scalar(t) * fnorm), ana


def knorm_eps(kernel, which: str, q: float, eps: float, closed_form: bool = True) -> float:
    """Sliding L^q norm over windows of length eps.

    For nonnegative, non-increasing scalar profiles (all families here) the
    supremum over windows is attained at [0, eps], so the value is
    ||k||_{L^q(0, eps)}.  Closed forms are used for the analytic families;
    otherwise adaptive quadrature at relative tolerance 1e-10.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    profile, ana = _frobenius_profile(kernel, which)

    if ana is not None and ana.family == "fractional":
        ex = q * (ana.beta - 1.0) + 1.0
        if ex <= 0:
            raise ValueError(
                f"kernel not in L^{q}: membership requires q*(beta-1)+1 > 0, "
                f"i.e. beta > {1.0 - 1.0 / q:.6g} (beta = {ana.beta})"
            )
        if closed_form:
            fnorm = np.sqrt(np.sum(ana.factor ** 2))
            return float((eps ** ex / ex) ** (1.0 / q) * fnorm / math.gamma(ana.beta))
    if ana is not None and closed_form:
        fnorm = np.sqrt(np.sum(ana.factor ** 2))
        if ana.family == "constant":
            return float(fnorm * eps ** (1.0 / q))
        if ana.family == "exponential":
            lam = ana.lam
            return float(fnorm * (-np.expm1(-q * lam * eps) / (q * lam)) ** (1.0 / q))

    from scipy.integrate import quad   # a slow import that only this branch needs
    val, _ = quad(lambda t: profile(np.asarray(t)) ** q, 0.0, eps, epsabs=0.0, epsrel=1e-10, limit=400)
    return float(val ** (1.0 / q))


def quadrature_error(kernel: DiscreteLaplaceKernel, t_grid, which: str = "b") -> dict:
    """Compare the atom representation against its analytic reference.

    Returns sup absolute/relative errors over the grid plus the full table.
    """
    ana = kernel.analytic(which)
    if ana is None:
        raise ValueError("kernel carries no analytic reference to compare against")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("t_grid must be positive (analytic family may be singular at 0)")
    khat = kernel.eval(which, t_grid)
    kexact = ana.eval(which, t_grid)
    abs_err = np.sqrt(np.sum((khat - kexact) ** 2, axis=(-2, -1)))
    scale = np.sqrt(np.sum(kexact ** 2, axis=(-2, -1)))
    rel_err = abs_err / scale
    return {
        "sup_abs": float(np.max(abs_err)),
        "sup_rel": float(np.max(rel_err)),
        "t": t_grid,
        "khat": khat,
        "kexact": kexact,
        "rel": rel_err,
    }
