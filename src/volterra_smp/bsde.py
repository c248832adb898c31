"""Scalar backward equations with a kappa-drift: the per-node building block.

The backward equation dp_t = kappa p_t dt - g_t dt + q_t dW_t with terminal
value h is solved on the grid by exact exponential discounting per step,

    p_m = E_m[e^{-kappa dt} p_{m+1}] + omega(kappa) g_m,
    omega(kappa) = (1 - e^{-kappa dt}) / kappa,

which integrates the kappa-drift exactly and is stable for kappa up to 1e4.
Closed forms cover terminals h = c + a W_T with deterministic generator
tables; a least-squares Monte Carlo solver covers general terminals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import horner
from .grids import TimeGrid
from .kernels import discounted_sweep, step_decay_weight
from .simulate import BrownianEnsemble


@dataclass(frozen=True)
class BSDEInstance:
    """Terminal h = terminal_const + terminal_wt * W_T, deterministic generator."""

    grid: TimeGrid
    kappa: float
    alpha: float = 0.0
    terminal_const: float = 0.0
    terminal_wt: float = 0.0
    generator: np.ndarray | float = 0.0

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")
        g = np.asarray(self.generator, dtype=float)
        if g.ndim == 0:
            g = np.full(self.grid.n_steps + 1, float(g))
        if g.shape != (self.grid.n_steps + 1,):
            raise ValueError("generator table must have shape (n_steps + 1,)")
        object.__setattr__(self, "generator", g)

    def terminal_values(self, ens: BrownianEnsemble) -> np.ndarray:
        return self.terminal_const + self.terminal_wt * ens.W[:, -1]


@dataclass(frozen=True)
class ClosedFormSolution:
    """p_t = det(t) + wt(t) * W_t with deterministic q; exact on the grid."""

    det: np.ndarray        # (N+1,) deterministic part of p
    wt: np.ndarray         # (N+1,) coefficient of W_t in p
    q: np.ndarray          # (N+1,) deterministic q
    gen_tail: np.ndarray   # (N+1,) discounted generator integral, part of det

    def p_values(self, ens: BrownianEnsemble) -> np.ndarray:
        """p on every path, a new (paths, N+1) table."""
        p = np.multiply(ens.W, self.wt)
        p += self.det
        return p

    def q_values(self, ens: BrownianEnsemble) -> np.ndarray:
        return np.broadcast_to(self.q, (ens.n_paths, self.q.size))


def solve_bsde_closedform(inst: BSDEInstance) -> ClosedFormSolution:
    """Exact solution for the closed-form family.

    p_t = e^{-kappa (T-t)} (c + a W_t) + int_t^T e^{-kappa (s-t)} g_s ds with
    the generator integral taken against the piecewise-constant table; for a
    constant generator the tail equals g (1 - e^{-kappa (T-t)}) / kappa
    exactly.  q_t = a e^{-kappa (T-t)}.
    """
    grid = inst.grid
    kappa = inst.kappa
    damp = np.exp(-kappa * (grid.T - grid.t))
    tail = discounted_sweep(kappa, grid.dt, 0.0, inst.generator)
    det = damp * inst.terminal_const + tail
    wt = damp * inst.terminal_wt
    q = damp * inst.terminal_wt
    return ClosedFormSolution(det=det, wt=wt, q=q, gen_tail=tail)


def martingale_check(p: np.ndarray, q: np.ndarray, generator: np.ndarray,
                     kappa: float, ens: BrownianEnsemble) -> dict:
    """Discrete martingale residual of the solved pair.

    D_m = e^{-k t_{m+1}} p_{m+1} - e^{-k t_m} p_m + e^{-k t_m} omega g_m
          - e^{-k t_m} q_m dW_m
    has conditional mean zero for an exact solve and vanishes pathwise for
    the closed-form family.  Returns ``max_pathwise``, the largest |D| over
    paths and steps.  D is built in place in one (paths, N) table with one
    scratch table, term by term in the order written.
    """
    grid = ens.grid
    disc = np.exp(-kappa * grid.t)
    om = float(step_decay_weight(kappa, grid.dt))
    if p.ndim == 1:
        p = np.broadcast_to(p, (ens.n_paths, p.size))
    if q.ndim == 1:
        q = np.broadcast_to(q, (ens.n_paths, q.size))
    D = np.multiply(p[:, 1:], disc[1:])
    tmp = np.multiply(p[:, :-1], disc[:-1])
    D -= tmp
    D += disc[:-1] * om * generator[:-1]
    np.multiply(q[:, :-1], disc[:-1], out=tmp)
    tmp *= ens.dW
    D -= tmp
    return {"max_pathwise": float(np.max(np.abs(D, out=tmp)))}


def _poly_design(x: np.ndarray, degree: int) -> np.ndarray:
    return np.stack([x ** k for k in range(degree + 1)], axis=1)


def _gaussian_poly_conditioning(coef: np.ndarray, var: float) -> tuple:
    """Coefficients of E[poly(x + Z)] and of E[poly(x + Z) Z] / var for
    Z ~ N(0, var), poly given by coef.

    E[(x+Z)^k] = sum_j C(k,j) m_{k-j} x^j with m_i the centered moments, and
    E[(x+Z)^k Z] picks the moment m_{k-j+1} instead.
    """
    d = coef.size - 1
    moments = np.zeros(d + 2)
    moments[0] = 1.0
    for i in range(2, d + 2, 2):
        moments[i] = moments[i - 2] * (i - 1) * var
    shift = np.zeros_like(coef)
    weighted = np.zeros_like(coef)
    for k in range(d + 1):
        if coef[k] == 0.0:
            continue
        for j in range(k + 1):
            shift[j] += coef[k] * math.comb(k, j) * moments[k - j]
            weighted[j] += coef[k] * math.comb(k, j) * moments[k - j + 1] / var
    return shift, weighted


def solve_bsde_lsmc(inst: BSDEInstance, ens: BrownianEnsemble, degree: int = 1,
                    mode: str = "later") -> dict:
    """Least-squares Monte Carlo backward solve.

    mode "now" regresses e^{-k dt} p_{m+1} + omega g_m on the basis at t_m
    and q on e^{-k dt} p_{m+1} dW_m / dt (the plain per-step estimator; its
    coefficient noise floor is O(1/sqrt(paths))).  mode "later" (default)
    projects p_{m+1} on the basis at t_{m+1} and applies the exact one-step
    Gaussian conditioning of the polynomial basis, which is noise-free once
    the projection is exact.  Both regress on polynomials of the Brownian
    path W_m at rcond 1e-8 (``bsee``'s rank rule: keep the singular values
    above 1e-8 s_0).  Returns p and q as (paths, N+1) tables.

    In mode "later" only the terminal regression reads the paths: the
    coefficient recursion runs first, over N small vectors, and p and q are
    then evaluated for every step at once by ``coefficients.horner``.
    """
    if degree < 1:
        raise ValueError("basis degree must be >= 1")
    grid = inst.grid
    N, dt = grid.n_steps, grid.dt
    W = ens.W
    terminal = inst.terminal_values(ens)
    dec = float(np.exp(-inst.kappa * dt))
    om = float(step_decay_weight(inst.kappa, dt))

    if mode == "later":
        # coef[m]: p_m as a polynomial of W_m; slope[m]: q_m likewise
        coef = np.empty((N + 1, degree + 1))
        slope = np.zeros((N + 1, degree + 1))
        coef[N], *_ = np.linalg.lstsq(_poly_design(W[:, N], degree), terminal, rcond=1e-8)
        for m in range(N - 1, -1, -1):
            # E_m[poly(W_{m+1})] and E_m[poly dW] / dt
            cond, weighted = _gaussian_poly_conditioning(coef[m + 1], dt)
            slope[m] = dec * weighted
            coef[m] = dec * cond
            coef[m, 0] += om * inst.generator[m]
        p = horner(coef.T, W, np.empty(W.shape))
        p[:, N] = terminal
        q = horner(slope.T, W, np.empty(W.shape))
        q[:, N] = 0.0
        return {"p": p, "q": q, "mode": mode, "degree": degree}

    if mode != "now":
        raise ValueError("mode must be 'now' or 'later'")
    p = np.empty(W.shape)
    q = np.zeros(W.shape)
    p[:, N] = terminal
    for m in range(N - 1, -1, -1):
        # one design for p and q; at W_0 = 0 the rank rule keeps the constant alone
        X = _poly_design(W[:, m], degree)
        targets = np.stack([dec * p[:, m + 1] + om * inst.generator[m],
                            dec * p[:, m + 1] * ens.dW[:, m] / dt], axis=1)
        coef, *_ = np.linalg.lstsq(X, targets, rcond=1e-8)
        p[:, m], q[:, m] = (X @ coef).T
    return {"p": p, "q": q, "mode": mode, "degree": degree}


def _exp_power_step_integrals(c: float, alpha: float, grid: TimeGrid) -> np.ndarray:
    """w_m = int_{t_m}^{t_{m+1}} (T-t)^alpha e^{-c (T-t)} dt, m = 0..N-1.

    Exact via the incomplete gamma function; stable for c up to ~1e4 where
    a plain Riemann rule misses the boundary layer entirely.
    """
    s_right = grid.T - grid.t[:-1]   # T - t_m (larger endpoint in s = T - t)
    s_left = grid.T - grid.t[1:]     # T - t_{m+1}
    if alpha == 0.0:
        if c == 0.0:
            return np.full(grid.n_steps, grid.dt)
        return (np.exp(-c * s_left) - np.exp(-c * s_right)) / c
    if c == 0.0:
        return (s_right ** (1.0 + alpha) - s_left ** (1.0 + alpha)) / (1.0 + alpha)
    from scipy.special import gammainc   # a slow import that only this branch needs
    a = 1.0 + alpha
    scale = math.gamma(a) / c ** a
    return scale * (gammainc(a, c * s_right) - gammainc(a, c * s_left))


def apriori_ratio(inst: BSDEInstance, sol: ClosedFormSolution, ens: BrownianEnsemble) -> dict:
    """Ratio of the six weighted solution terms to the data bracket.

    LHS = E[ sup |p|^2 + kappa int |p|^2 + int |q|^2
             + kappa^a sup (T-t)^a |p|^2 + kappa^{1+a} int (T-t)^a |p|^2
             + kappa^a int (T-t)^a |q|^2 ]
    RHS = E[ |h|^2 + Gamma(1-a)/kappa^{1-a} int (T-t)^a |g|^2 dt ]

    Time integrals treat the known exponential factors of the closed-form
    solution exactly within each step (the slowly-varying Brownian factors
    are frozen at the left point); suprema use the grid max.  Each pair of
    integrals (plain and (T-t)^a-weighted) is one (paths, N) x (N, 2)
    product, against A and then, squared in place, A^2.
    """
    grid = inst.grid
    alpha = inst.alpha
    kappa = inst.kappa
    if kappa <= 0:
        raise ValueError("the ratio is defined for kappa > 0")
    c_, a_ = inst.terminal_const, inst.terminal_wt

    # |p_t|^2 = e^{-2k(T-t)} A_t^2 + 2 e^{-k(T-t)} A_t G_t + G_t^2,
    # A_t = c + a W_t slowly varying, G_t the generator tail.
    G = sol.gen_tail[:-1]                 # (N,)
    w2 = _exp_power_step_integrals(2.0 * kappa, alpha, grid)
    w1 = _exp_power_step_integrals(kappa, alpha, grid)
    w0 = _exp_power_step_integrals(0.0, alpha, grid)
    w2f = _exp_power_step_integrals(2.0 * kappa, 0.0, grid)
    w1f = _exp_power_step_integrals(kappa, 0.0, grid)
    w0f = np.full(grid.n_steps, grid.dt)

    A = np.multiply(ens.W[:, :-1], a_)    # (paths, N)
    A += c_
    AG = A @ np.stack([G * w1f, G * w1], axis=1)       # (paths, 2): plain, weighted
    np.square(A, out=A)
    A2 = A @ np.stack([w2f, w2], axis=1)
    G2 = G ** 2
    int_p2 = A2[:, 0] + 2.0 * AG[:, 0] + np.sum(G2 * w0f)
    int_p2_w = A2[:, 1] + 2.0 * AG[:, 1] + np.sum(G2 * w0)
    del A
    # q_t = a e^{-k(T-t)} deterministic
    int_q2 = a_ ** 2 * float(np.sum(w2f))
    int_q2_w = a_ ** 2 * float(np.sum(w2))

    p2 = sol.p_values(ens)
    np.square(p2, out=p2)
    sup_p2 = np.max(p2, axis=1)
    p2 *= (grid.T - grid.t) ** alpha
    sup_p2_w = np.max(p2, axis=1)

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


def lsmc_relative_error(inst: BSDEInstance, ens: BrownianEnsemble, degree: int = 1,
                        mode: str = "later") -> float:
    """Time-averaged L2 relative error of the LSMC solve against the oracle."""
    diff = solve_bsde_lsmc(inst, ens, degree=degree, mode=mode)["p"]
    p_ref = solve_bsde_closedform(inst).p_values(ens)
    diff -= p_ref
    num = np.sqrt(np.mean(np.square(diff, out=diff)))
    den = np.sqrt(np.mean(np.square(p_ref, out=p_ref)))
    return float(num / den)
