"""Backward fields on the decay-rate grid: solvers and adjoint assembly.

A first-order field (p, q) attaches one scalar backward equation to every
decay node theta with drift rate theta; a second-order field (P, Q) lives on
node pairs with rate theta_1 + theta_2.  Node equations couple only through
mu-contractions such as sum_i w_i M_b(theta_i)^T p_t(theta_i), which is what
the generators below consume.

Discrete convention (shared by every consumer in this package):

    p_m(theta) = E_m[e^{-theta dt} p_{m+1}(theta)] + omega(theta) g_m,
    q_m(theta) = E_m[e^{-theta dt} p_{m+1}(theta) dW_m] / dt,
    omega(theta) = (1 - e^{-theta dt}) / theta   (dt at theta = 0),

with the generator table evaluated at the solved fields (the fixed point of
the plain Picard iteration).  Random data are supported in one closed-form
family: fields affine in a scalar Gaussian martingale Z with deterministic
vol, p_m = P0_m + P1_m Z_m, which covers state-free problems with quadratic
terminal cost exactly (Z = conditional mean of the terminal state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, ControlPath, StructuralTags, coeff_tables, readers
from .grids import TimeGrid, hnorm_weight, weighted_norm
from .kernels import DiscreteLaplaceKernel, discounted_sweep, sweep_factors
from .simulate import BrownianEnsemble, lift_along


class PicardError(RuntimeError):
    pass


@dataclass(frozen=True)
class GaussianMartingale:
    """Z_{m+1} = Z_m + vol_m dW_m with a deterministic vol table."""

    values: np.ndarray  # (paths, N+1)
    vol: np.ndarray     # (N+1,), last entry unused

    @classmethod
    def terminal_state_mean(cls, kernel: DiscreteLaplaceKernel, grid: TimeGrid,
                            ens: BrownianEnsemble, b_tab: np.ndarray,
                            s_tab: np.ndarray) -> "GaussianMartingale":
        """E_m[X_T] for the state-free scalar state equation without forcing.

        b_tab, s_tab are deterministic (N+1,) drift/diffusion content tables;
        without forcing the discrete terminal state is sum_j Kb(T-t_j) b_j dt
        + sum_j Ks(T-t_j) s_j dW_j, so the conditional mean is a Gaussian
        martingale with vol_m = Ks(T - t_m) s_m.
        """
        N = grid.n_steps
        ts = grid.T - grid.t[:-1]  # T - t_j >= dt
        kb = kernel.eval("b", ts)[:, 0, 0]
        ks = kernel.eval("sigma", ts)[:, 0, 0]
        mean0 = float(np.sum(kb * b_tab[:-1]) * grid.dt) + 0.0   # a -0.0 sum reads 0.0
        vol = np.zeros(N + 1)
        vol[:-1] = ks * s_tab[:-1]
        vals = np.empty((ens.n_paths, N + 1))
        vals[:, 0] = mean0
        np.cumsum(vol[None, :-1] * ens.dW, axis=1, out=vals[:, 1:])
        vals[:, 1:] += mean0
        return cls(values=vals, vol=vol)


@dataclass
class FirstOrderField:
    """Adjoint pair (p, q) on the decay grid, affine in an optional Z."""

    grid: TimeGrid
    P0: np.ndarray                     # (N+1, K, n)
    Q0: np.ndarray                     # (N+1, K, n)
    G0: np.ndarray                     # (N+1, K, n) generator table (theta-resolved)
    P1: np.ndarray | None = None       # (N+1, K, n) coefficient of Z
    Z: GaussianMartingale | None = None
    iterations: int = 0
    distances: list = field(default_factory=list)
    # regression solve path: rank_min, rank_max and cond_max of its designs
    regression: dict | None = None


@dataclass
class SecondOrderField:
    """Deterministic pair field (P, Q == 0) on the node-pair grid."""

    grid: TimeGrid
    P: np.ndarray   # (N+1, K, K, n, n)
    G: np.ndarray   # (N+1, K, K, n, n)
    asymmetry: float = 0.0
    iterations: int = 0
    distances: list = field(default_factory=list)


def trivial_bsee_solve(
    kernel: DiscreteLaplaceKernel,
    grid: TimeGrid,
    phi0: np.ndarray,
    g0: np.ndarray,
    phi1: np.ndarray | None = None,
    Z: GaussianMartingale | None = None,
) -> FirstOrderField:
    """Solution when the generator does not depend on the unknown field.

    phi0/phi1: (K, n) terminal data, phi1 the coefficient of Z; g0: the
    (N+1, K, n) generator table.
    For constant generators the result matches the exact discounted integral
    (1 - e^{-theta (T-t)}) / theta at every node, including theta = 0.
    """
    nodes, dt = kernel.nodes, grid.dt
    G0 = np.asarray(g0, dtype=float)
    P0 = discounted_sweep(nodes, dt, phi0, G0)
    if phi1 is None:
        return FirstOrderField(grid=grid, P0=P0, Q0=np.zeros_like(P0), G0=G0)

    if Z is None:
        raise ValueError("affine terminal data need the Gaussian factor Z")
    P1 = discounted_sweep(nodes, dt, phi1, np.zeros_like(P0))
    Q0 = np.zeros_like(P0)
    Q0[:-1] = np.exp(-nodes * dt)[:, None] * P1[1:] * Z.vol[:-1, None, None]
    return FirstOrderField(grid=grid, P0=P0, Q0=Q0, G0=G0, P1=P1, Z=Z)


def _s_norm(grid: TimeGrid, kernel: DiscreteLaplaceKernel, order: int):
    """dP -> sqrt( sum_m (T-t_m)^alpha dt ||dP_m||^2_{1+alpha} ) of a table
    field (Q == 0) at the kernel's alpha, its weights built once."""
    wts = (grid.T - grid.t) ** kernel.alpha * grid.dt
    weight = hnorm_weight(kernel, 1.0 + kernel.alpha, order)
    return lambda dP: float(np.sqrt(np.sum(wts * weighted_norm(dP, weight) ** 2)))


def picard_bsee_solve(
    kernel: DiscreteLaplaceKernel,
    grid: TimeGrid,
    phi: np.ndarray,
    generator_map,
    order: int = 1,
    tol: float = 1e-10,
    max_iter: int = 200,
):
    """Plain fixed-point iteration over deterministic table fields.

    generator_map(P) -> generator table of the same field shape; each iterate
    is the discounted sweep of the generator-frozen equation, at the node
    rates (order 1) or the node-pair rates (order 2, where generator_map sees
    only symmetric fields after the terminal one: a vector state's iterates
    are symmetrized and their largest asymmetry before it is recorded, while
    a scalar state's are symmetric bit for bit, so its recorded asymmetry is
    the converged field's).  A table field has Q == 0 on every iterate, so
    only P is iterated.  The rate tables and the norm weights are built once per solve.
    Stops when the weighted space-time distance (at the kernel's alpha)
    between successive iterates drops below tol; raises on iteration
    exhaustion or three consecutive non-contracting steps, naming the field
    (first-order or pair) and the iteration count.
    Returns the solved field with its iteration distances attached.
    """
    rates = kernel.nodes if order == 1 else kernel.pair_rates
    factors = sweep_factors(rates, grid.dt, phi.ndim - rates.ndim)
    distance = _s_norm(grid, kernel, order)
    P = np.zeros((grid.n_steps + 1,) + phi.shape)
    P[-1] = phi
    distances = []
    asym_max = 0.0
    bad_ratio = 0
    symmetrize = order == 2 and phi.shape[-1] > 1
    field = "first-order" if order == 1 else "pair"
    for it in range(max_iter):
        P_new = discounted_sweep(rates, grid.dt, phi, generator_map(P), factors)
        if symmetrize:
            swapped = _pair_transpose(P_new)
            asym_max = max(asym_max, float(np.max(np.abs(P_new - swapped))))
            P_new = 0.5 * (P_new + swapped)
        d = distance(P_new - P)
        distances.append(d)
        if len(distances) >= 2 and distances[-2] > 0:
            bad_ratio = bad_ratio + 1 if d / distances[-2] >= 1.0 else 0
            if bad_ratio >= 3 and d > tol:
                raise PicardError(f"no contraction of the {field} field after {it + 1} "
                                  f"iterations: distances {distances[-4:]}")
        P = P_new
        if d < tol:
            if order == 1:
                return FirstOrderField(grid=grid, P0=P, Q0=np.zeros_like(P),
                                       G0=generator_map(P), iterations=it + 1,
                                       distances=distances)
            if not symmetrize:
                asym_max = float(np.max(np.abs(P - _pair_transpose(P))))
            return SecondOrderField(grid=grid, P=P, G=generator_map(P),
                                    asymmetry=asym_max, iterations=it + 1,
                                    distances=distances)
    raise PicardError(f"max_iter={max_iter} exceeded on the {field} field, "
                      f"last distance {distances[-1]:.3e}")


def _pair_transpose(P: np.ndarray) -> np.ndarray:
    """P_ji^T of a pair field (..., K, K, n, n) as a view."""
    return np.swapaxes(np.swapaxes(P, -4, -3), -2, -1)


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def contract_first(kernel: DiscreteLaplaceKernel, which: str, field_tab: np.ndarray) -> np.ndarray:
    """sum_i w_i M(theta_i)^T psi(theta_i): (..., K, n) -> (..., n)."""
    m = kernel.factors(which)
    return np.einsum("k,kca,...kc->...a", kernel.weights, m, field_tab)


def contract_pair_full(kernel: DiscreteLaplaceKernel, P: np.ndarray) -> np.ndarray:
    """mu x mu contraction Msig^T P Msig: (..., K, K, n, n) -> (..., n, n), as
    the first node index contracted after the second."""
    ws = kernel.weights[:, None, None] * kernel.msigma
    return np.einsum("ica,...icb->...ab", ws, contract_pair_right(kernel, "sigma", P))


def contract_pair_right(kernel: DiscreteLaplaceKernel, which: str, P: np.ndarray) -> np.ndarray:
    """mu[P(theta_1, .) M]: contract the second node index, -> (..., K, n, n)."""
    m = kernel.factors(which)
    return np.einsum("j,...ijab,jbc->...iac", kernel.weights, P, m)


# ---------------------------------------------------------------------------
# adjoint assembly
# ---------------------------------------------------------------------------

def choose_solve_path(tags: StructuralTags, lsmc: bool, deterministic_control: bool):
    """The first-order solve path: "deterministic", "affine", "lsmc" or None.

      deterministic: linear terminal cost, x-free cost slope and x-free state
          derivatives along a deterministic control; Picard over tables;
      affine: state-free dynamics with terminal cost of degree <= 2 along a
          deterministic control; closed form driven by Z = E_.[X_T];
      lsmc: anything else, by least-squares Monte Carlo, when opted in.
    """
    if deterministic_control and (tags.linear_in_state or tags.state_free) \
            and tags.h_degree <= 1 and tags.f_state_degree <= 1:
        return "deterministic"
    if deterministic_control and tags.state_free and tags.f_state_degree <= 1 \
            and tags.h_degree <= 2:
        return "affine"
    return "lsmc" if lsmc else None


@dataclass
class AdjointSolution:
    """First- and (optionally) second-order adjoint data plus contractions."""

    kernel: DiscreteLaplaceKernel
    grid: TimeGrid
    first: FirstOrderField
    u_hat: ControlPath | None = None
    second: SecondOrderField | None = None
    # contraction tables: deterministic part and Z-coefficient (None if det)
    Ab0: np.ndarray | None = None   # (N+1, n) mu[Mb^T p]
    Ab1: np.ndarray | None = None
    Aq0: np.ndarray | None = None   # (N+1, n) mu[Ms^T q]
    Rss: np.ndarray | None = None   # (N+1, n, n) mu x mu [Ms^T P Ms]
    solve_path: str = "deterministic"

    @property
    def tgrid(self) -> DiscreteLaplaceKernel:
        """Alias of ``kernel``, the decay grid of the fields."""
        return self.kernel

    def finalize(self):
        k = self.kernel
        self.Ab0 = contract_first(k, "b", self.first.P0)
        self.Ab1 = None if self.first.P1 is None else contract_first(k, "b", self.first.P1)
        self.Aq0 = contract_first(k, "sigma", self.first.Q0)
        if self.second is not None:
            self.Rss = contract_pair_full(k, self.second.P)
        else:
            self.Rss = np.zeros((self.grid.n_steps + 1, k.dim, k.dim))
        return self

    def first_contractions_at(self, m):
        """(mu[Mb^T p_m], mu[Ms^T q_m]) as per-path rows (paths, n) or (n,).

        ``m`` may also be an array of grid indices, which become a leading axis.
        """
        Ab = self.Ab0[m]
        if self.Ab1 is not None:
            z = self.first.Z.values[:, m].T
            Ab = Ab[..., None, :] + self.Ab1[m][..., None, :] * z[..., None]
        return Ab, self.Aq0[m]


def assemble_first_adjoint(
    coeffs: CoefficientSet,
    u_hat: ControlPath,
    x_hat: np.ndarray | None,
    kernel: DiscreteLaplaceKernel,
    ens: BrownianEnsemble,
    tol: float = 1e-10,
    max_iter: int = 200,
    lsmc: bool = False,
) -> AdjointSolution:
    """Build the first-order adjoint field for a reference control, on the
    solve path that ``choose_solve_path`` picks from the tags."""
    grid = ens.grid
    tags = coeffs.tags
    n = coeffs.dim
    K = kernel.n_nodes
    path = choose_solve_path(tags, lsmc, u_hat.deterministic)

    if path == "deterministic":
        (bx,), (fx,) = coeff_tables(coeffs, u_hat, grid, ("b_x", "f_x"))
        phi = np.broadcast_to(-coeffs.h_x(np.zeros((1, n)))[0], (K, n)).copy()

        def gen_map(P):
            g = np.einsum("tca,tc->ta", bx, contract_first(kernel, "b", P)) - fx
            return np.broadcast_to(g[:, None, :], P.shape).copy()

        fld = picard_bsee_solve(kernel, grid, phi, gen_map, order=1, tol=tol,
                                max_iter=max_iter)
        return AdjointSolution(kernel=kernel, grid=grid, first=fld,
                               u_hat=u_hat, solve_path="deterministic").finalize()

    if path == "affine":
        if n != 1:
            raise NotImplementedError("the affine closed-form path is scalar-state")
        if x_hat is None:
            raise ValueError("the affine path needs the simulated reference state")
        N = grid.n_steps
        (b_tab,), (s_tab,), (fx,) = coeff_tables(coeffs, u_hat, grid, ("b", "sigma", "f_x"))
        b_tab, s_tab = b_tab[:, 0], s_tab[:, 0]
        # Z_m = E_m[X_T]; the deterministic forcing offset is recovered from
        # the simulated terminal state, which must match Z_T pathwise.  The
        # first path's offset is the shift, so it does not depend on the path count.
        Z = GaussianMartingale.terminal_state_mean(kernel, grid, ens, b_tab, s_tab)
        offsets = x_hat[:, -1, 0] - Z.values[:, -1]
        shift = float(offsets[0])
        if float(np.max(np.abs(offsets - shift))) > 1e-8 * max(1.0, abs(shift)):
            raise ValueError("reference state is not state-free on this ensemble")
        Z = GaussianMartingale(values=Z.values + shift, vol=Z.vol)
        # terminal: -h_x(X_T) = -(h1 + h2 X_T); slope from h_xx, level from h_x(0)
        h1 = coeffs.h_x(np.zeros((1, 1)))[0, 0]
        h2 = coeffs.h_xx(np.zeros((1, 1)))[0, 0, 0]
        phi0 = np.full((K, 1), -h1)
        phi1 = np.full((K, 1), -h2)
        g0 = np.broadcast_to(-fx[:, None, :], (N + 1, K, 1)).copy()
        fld = trivial_bsee_solve(kernel, grid, phi0, g0, phi1=phi1, Z=Z)
        return AdjointSolution(kernel=kernel, grid=grid, first=fld,
                               u_hat=u_hat, solve_path="affine").finalize()

    if path == "lsmc":
        return _assemble_first_adjoint_lsmc(coeffs, u_hat, x_hat, kernel, ens)
    raise ValueError(
        "unsupported coefficient structure for closed-form adjoints "
        f"(tags: {tags}); enable lsmc for the regression path"
    )


def _retained_basis(design: np.ndarray) -> tuple:
    """(U_r, s_0 / s_{r-1}) of the thin SVD design = U s V^T: the left singular
    vectors with s > 1e-8 s_0, the rank rule of least squares at rcond 1e-8."""
    U, s, _ = np.linalg.svd(design, full_matrices=False)
    r = int(np.count_nonzero(s > 1e-8 * s[0]))
    return U[:, :r], float(s[0] / s[r - 1])


def _assemble_first_adjoint_lsmc(coeffs, u_hat, x_hat, kernel, ens) -> AdjointSolution:
    """Regression solve over the lift basis {1, Y_i(t_m)} of the reference
    state; best-effort accuracy.

    One explicit backward sweep: the generator at step m is assembled from
    the regression estimates of p~_m = E_m[e^{-theta dt} p_{m+1}] and of
    q_m = E_m[e^{-theta dt} p_{m+1} dW_m] / dt.  Step m factors its design
    [1, Y_m] once by a thin SVD and keeps the singular directions above
    1e-8 s_0 (least squares at rcond 1e-8): the lift coordinates all start
    from zero and are strongly correlated across nodes.  The estimate of a
    target v is then its projection U_r U_r^T v, and only what the sweep
    reads is projected: the K columns of p~, the one functional
    mu[M_s q_m] of the generator, and the path mean of q_m as
    ((U_r U_r^T 1/P) o dW_m/dt)^T disc.  The retained ranks and the largest
    s_0 / s_{r-1} are recorded in ``FirstOrderField.regression``.
    """
    grid = ens.grid
    if coeffs.dim != 1:
        raise NotImplementedError("LSMC adjoints are scalar-state")
    if x_hat is None:
        raise ValueError("the regression path needs the simulated reference state")
    N, dt = grid.n_steps, grid.dt
    K, paths = kernel.n_nodes, ens.n_paths
    Y = lift_along(coeffs, u_hat, kernel, x_hat, ens)[:, :, 0]        # (N+1, K, paths)
    bx, sx, fx = readers(coeffs, u_hat, grid, ("b_x", "sigma_x", "f_x"))
    dec, om = sweep_factors(kernel.nodes, dt)
    mb = kernel.mb[:, 0, 0] * kernel.weights
    ms = kernel.msigma[:, 0, 0] * kernel.weights
    dw_dt = ens.dW.T / dt                                              # (N, paths)

    p = np.empty((paths, K))
    p[:] = -coeffs.h_x(x_hat[:, -1])[:, 0][:, None]
    P0, Q0, G0 = (np.zeros((N + 1, K, 1)) for _ in range(3))
    P0[N, :, 0] = np.mean(p, axis=0)
    design = np.ones((paths, K + 1), order="F")
    ranks, conds = np.empty(N, dtype=int), np.empty(N)
    for m in range(N - 1, -1, -1):
        design[:, 1:] = Y[m].T
        Ur, conds[m] = _retained_basis(design)
        ranks[m] = Ur.shape[1]
        disc = p * dec
        p_tilde = Ur @ (Ur.T @ disc)
        q_ms = Ur @ (Ur.T @ ((disc @ ms) * dw_dt[m]))                   # mu[M_s q_m]
        xm = x_hat[:, m, 0]
        g = bx(m, xm) * (p_tilde @ mb) + sx(m, xm) * q_ms - fx(m, xm)
        p = p_tilde + om * g[:, None]
        P0[m, :, 0] = np.mean(p, axis=0)
        Q0[m, :, 0] = (Ur @ (Ur.sum(axis=0) / paths) * dw_dt[m]) @ disc
        G0[m] = np.mean(g)
    regression = {"rank_min": int(ranks.min()), "rank_max": int(ranks.max()),
                  "cond_max": float(conds.max())}
    fld = FirstOrderField(grid=grid, P0=P0, Q0=Q0, G0=G0, regression=regression)
    return AdjointSolution(kernel=kernel, grid=grid, first=fld,
                           u_hat=u_hat, solve_path="lsmc").finalize()


def assemble_second_adjoint(
    coeffs: CoefficientSet,
    first: AdjointSolution,
    kernel: DiscreteLaplaceKernel,
    ens: BrownianEnsemble,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> AdjointSolution:
    """Attach the node-pair field (P, Q == 0) to a solved first-order field.

    Requires x-free second state derivatives of b and sigma (linear-in-state
    or state-free dynamics) and constant cost Hessians, which keeps the pair
    equation deterministic even when (p, q) is random.  The iterates are
    symmetric (see ``picard_bsee_solve``), and the asymmetry is recorded.
    """
    tags = coeffs.tags
    if not (tags.linear_in_state or tags.state_free):
        raise ValueError("pair field requires x-free state-derivative structure")
    if tags.h_degree > 2 or tags.f_state_degree > 2:
        raise ValueError("pair field requires cost Hessians constant in x")
    grid = ens.grid
    n = coeffs.dim
    K = kernel.n_nodes
    (bx,), (sx,), (fxx,) = coeff_tables(coeffs, first.u_hat, grid, ("b_x", "sigma_x", "f_xx"))
    hxx = coeffs.h_xx(np.zeros((1, n)))[0]
    phi = np.broadcast_to(-hxx, (K, K, n, n)).copy()
    # x-free second derivatives of b, sigma vanish under the supported tags,
    # so the Hessian block of the generator reduces to -f_xx.
    hess_term = -fxx  # (N+1, n, n)

    def gen_map(P):
        # g_ij = bx^T L_j + R_i bx + sx^T Mid sx - f_xx with the one-sided
        # contractions R_i = mu[P(theta_i, .) M_b] and L_j = mu[M_b^T P(., theta_j)].
        # Picard hands over symmetric iterates, P_ij = P_ji^T, so L_j = R_j^T and
        # bx^T L_j = (R_j bx)^T: one contraction serves both sides.
        rb = np.einsum("tiac,tcb->tiab", contract_pair_right(kernel, "b", P), bx)
        smid = np.einsum("tca,tcd,tdb->tab", sx, contract_pair_full(kernel, P), sx)
        g = rb[:, :, None] + np.swapaxes(rb, -2, -1)[:, None, :]
        g += (smid + hess_term)[:, None, None]
        return g

    fld2 = picard_bsee_solve(kernel, grid, phi, gen_map, order=2, tol=tol,
                             max_iter=max_iter)
    first.second = fld2
    return first.finalize()


def assemble_adjoints(
    coeffs: CoefficientSet,
    u_hat: ControlPath,
    x_hat: np.ndarray | None,
    kernel: DiscreteLaplaceKernel,
    ens: BrownianEnsemble,
    tol: float = 1e-10,
    max_iter: int = 200,
    lsmc: bool = False,
) -> AdjointSolution:
    """First- and second-order adjoint fields with cached contractions."""
    adj = assemble_first_adjoint(coeffs, u_hat, x_hat, kernel, ens,
                                 tol=tol, max_iter=max_iter, lsmc=lsmc)
    return assemble_second_adjoint(coeffs, adj, kernel, ens, tol=tol, max_iter=max_iter)
