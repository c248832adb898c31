"""Spike variations of a control and the associated expansion processes.

For a reference control u_hat, a spike (tau, eps, v) replaces the control by
v on [tau, tau + eps).  The module co-simulates, on shared increments,

  * the spiked state X^eps,
  * the first-order expansion process X1 (linear equation with frozen
    derivatives at (u_hat, X_hat), forced by the coefficient jumps on the
    spike window),
  * the second-order expansion process X2 (same linear operator, forced by
    Hessian terms in X1 and by derivative jumps acting on X1),

and accumulates the C^2 norms of the differences dX = X^eps - X_hat,
dX1 = dX - X1, dX12 = dX - X1 - X2 together with the quadratic cost
expansion J12 and the actual cost increment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet, ControlPath, readers, table_degrees
from .grids import TimeGrid
from .kernels import DiscreteLaplaceKernel, knorm_eps
from .simulate import BrownianEnsemble, LiftStep, xi_table
from .stats import fit_loglog, mc_mean_se

NORM_KEYS = ("dX", "X1", "dX1", "X2", "dX12")
_NAMES = ("b", "sigma", "b_x", "sigma_x", "b_xx", "sigma_xx", "f", "f_x", "f_xx")


@dataclass(frozen=True)
class SpikeSpec:
    """Spike window [tau, tau + eps) snapped to whole grid steps."""

    tau: float
    eps: float
    v: ControlPath

    def window(self, grid: TimeGrid) -> tuple[int, int]:
        j0 = int(round(self.tau / grid.dt))
        n_eps = max(1, int(round(self.eps / grid.dt)))
        j1 = j0 + n_eps
        if j0 < 0 or j1 > grid.n_steps:
            raise ValueError("spike window [tau, tau+eps] must sit inside [0, T]")
        return j0, j1


@dataclass
class VariationBundle:
    """Accumulated output of one spike co-simulation."""

    spike: SpikeSpec
    eps_snapped: float
    norms: dict                 # key -> C^2 norm estimate
    j12_terms: np.ndarray       # per-path J12 sample
    cost_increment: np.ndarray  # per-path J(u^eps) - J(u_hat) sample
    terminal: dict = field(default_factory=dict)  # per-path terminal values
    tables: dict = field(default_factory=dict)    # full paths when stored
    tabulated: dict = field(default_factory=dict)  # name -> degree of its Taylor tables

    def j12(self) -> tuple[float, float]:
        return mc_mean_se(self.j12_terms)

    def delta_j12(self) -> tuple[float, float]:
        return mc_mean_se(self.cost_increment - self.j12_terms)


def _spike_cosimulation(coeffs, kernel, u_hat, spikes, xi, ens, store=False,
                        observer=None) -> list:
    """Co-simulate X_hat and, per spike, (X^eps, X1, X2) in one lift stack.

    The stack holds 1 + 3S slabs: X_hat, then the S spiked states, then the
    S first- and the S second-order processes.
    Before the earliest spike index only X_hat advances: there X1 = X2 = 0
    and X^eps = X_hat exactly, so at that index the spiked slabs take the
    reference slab's block state (``LiftStep.fork``) and the X1, X2 slabs
    start from zero.  The forcings are written straight into the lift's drive
    slots.  The reference derivatives are evaluated once per step for all
    spikes.  The spikes share one value ``v``.

    The coefficients come from ``coefficients.readers`` (after
    ``CoefficientSet.self_test``): along u_hat and along v at X_hat, and
    along the S spiked controls, stacked, at the spiked states.  Each
    bundle's ``tabulated`` maps those read from Taylor tables to their
    degrees.  A Hessian term whose tabulated Hessian is zero along u_hat
    would add exact zeros and is skipped.  The running integrals are scaled
    by dt once, at the end.

    ``observer(m, Y1, Y2, forcings, cv)`` sees the first spike before each
    advance at j_start <= m < N (before, X1 = X2 = 0): its lift states from
    ``LiftStep.state``, its (P,) forcings (F1b, F1s, F2b, F2s) in the drive
    slots, and ``cv``: {} off the window, else the (P,) jumps "db", "ds", "df".
    """
    if coeffs.dim != 1 or kernel.dim != 1:
        raise NotImplementedError("the fused variational loop is scalar-state")
    v = spikes[0].v
    if any(sp.v is not v for sp in spikes):
        raise ValueError("the spikes of one co-simulation must share their value v")
    grid = ens.grid
    N, dt, P, S = grid.n_steps, grid.dt, ens.n_paths, len(spikes)
    if u_hat.n_steps != N or v.n_steps != N:
        raise ValueError("control tables must live on the simulation grid")
    if not (u_hat.deterministic and v.deterministic):
        raise ValueError("the co-simulation needs deterministic control tables")
    win = np.array([sp.window(grid) for sp in spikes])  # (S, 2)
    j_start = int(win[:, 0].min())
    xi_tab = xi_table(xi, grid, 1)[:, 0]
    steps = np.arange(N + 1)[:, None]
    active_at = (win[:, 0] <= steps) & (steps < win[:, 1])   # (N+1, S)

    coeffs.self_test()
    b_h, s_h, bx_h, sx_h, bxx_h, sxx_h, f_h, fx_h, fxx_h = readers(coeffs, u_hat, grid, _NAMES)
    b_v, s_v, bx_v, sx_v, f_v = readers(coeffs, v, grid, ("b", "sigma", "b_x", "sigma_x", "f"))
    spiked = [ControlPath(np.where(active_at[:, s, None], v.values, u_hat.values))
              for s in range(S)]
    b_e, s_e, f_e = readers(coeffs, spiked, grid, ("b", "sigma", "f"))
    tabulated = table_degrees(coeffs, u_hat)
    # a Hessian term whose tables are zero along u_hat would add exact zeros
    bxx_h, sxx_h, fxx_h = (rd if rd.taylor is None or np.any(rd.taylor) else None
                           for rd in (bxx_h, sxx_h, fxx_h))

    G = 1 + 3 * S
    lift = LiftStep(kernel, dt, ens.dW, G)
    X = lift.x[:, 0]   # the lift's output rows: each advance rewrites them in place
    X[0] = xi_tab[0]
    xh, Xe, X1, X2 = X[0], X[1:1 + S], X[1 + S:1 + 2 * S], X[1 + 2 * S:]
    X12 = X[1 + S:].reshape(2, S, P)

    # dX, dX1, dX12.  Nothing reads them before the next step's advance, so
    # until then their rows are that step's scratch: the loop allocates no
    # (S, P) products.
    diffs = np.empty((3, S, P))
    work = diffs[:2]
    rows = ("dX", "dX1", "dX12", "X1", "X2")
    sup_sq = np.zeros((len(rows), S))   # sup over steps of the path sums of squares
    sq = np.empty_like(sup_sq)
    j12_run = np.zeros((S, P))   # running f-expansion integral, over dt
    dcost_f = np.zeros((S, P))   # running f(u^eps, X^eps) - f(u_hat, X_hat), over dt
    delta_f = np.zeros((S, P))   # running spike integral of delta f, over dt
    tables = np.zeros((len(rows), S, P, N + 1)) if store else None

    for m in range(j_start):
        Fb, Fs = (f[:, 0] for f in lift.drives())
        b_h(m, xh, Fb[0])
        s_h(m, xh, Fs[0])
        lift.advance(1)
        xh += xi_tab[m + 1]
    lift.fork(0, slice(1, 1 + S))   # X^eps = X_hat here, X1 = X2 = 0

    for m in range(j_start, N):
        active = active_at[m]
        # forcings go straight into the lift's drive slots for this step
        Fb, Fs = (f[:, 0] for f in lift.drives())
        F1b, F1s, F2b, F2s = Fb[1 + S:1 + 2 * S], Fs[1 + S:1 + 2 * S], Fb[1 + 2 * S:], Fs[1 + 2 * S:]
        bh, sh = b_h(m, xh, Fb[0]), s_h(m, xh, Fs[0])
        bxh, sxh = bx_h(m, xh), sx_h(m, xh)
        fh, fxh = f_h(m, xh), fx_h(m, xh)

        # spiked state forcing (full nonlinear coefficients at X^eps)
        b_e(m, Xe, Fb[1:1 + S])
        s_e(m, Xe, Fs[1:1 + S])

        # first/second-order forcings with frozen derivatives at (u_hat, X_hat)
        np.multiply(bxh, X1, out=F1b)
        np.multiply(sxh, X1, out=F1s)
        for F2, d1, d2 in ((F2b, bxh, bxx_h), (F2s, sxh, sxx_h)):
            np.multiply(d1, X2, out=F2)                          # d1 X2 + (d2 / 2) X1 X1
            if d2 is not None:
                np.multiply(0.5 * d2(m, xh), X1, out=work[0])
                work[0] *= X1
                F2 += work[0]
        cv = {}
        if active.any():
            cv = {"db": b_v(m, xh) - bh, "ds": s_v(m, xh) - sh,
                  "dbx": bx_v(m, xh) - bxh, "dsx": sx_v(m, xh) - sxh, "df": f_v(m, xh) - fh}
            F1b[active] += cv["db"]
            F1s[active] += cv["ds"]
            F2b[active] += cv["dbx"] * X1[active]
            F2s[active] += cv["dsx"] * X1[active]
            delta_f[active] += cv["df"]
        if observer is not None:
            observer(m, lift.state(1 + S), lift.state(1 + 2 * S),
                     (F1b[0], F1s[0], F2b[0], F2s[0]), cv if active[0] else {})

        # running cost pieces (left-point rule)
        # j12_run += f_x (X1 + X2) + (f_xx / 2) X1 X1, in that operation order
        np.add(X1, X2, out=work[0])
        work[0] *= fxh
        if fxx_h is not None:
            np.multiply(0.5 * fxx_h(m, xh), X1, out=work[1])
            work[1] *= X1
            work[0] += work[1]
        j12_run += work[0]
        f_e(m, Xe, work[0])
        work[0] -= fh
        dcost_f += work[0]

        lift.advance()
        X[:1 + S] += xi_tab[m + 1]
        np.subtract(Xe, xh, out=diffs[0])
        np.subtract(diffs[0], X1, out=diffs[1])
        np.subtract(diffs[1], X2, out=diffs[2])
        if store:
            tables[:3, ..., m + 1] = diffs
            tables[3:, ..., m + 1] = X12
        np.einsum("ksp,ksp->ks", diffs, diffs, out=sq[:3])
        np.einsum("ksp,ksp->ks", X12, X12, out=sq[3:])
        np.maximum(sup_sq, sq, out=sup_sq)
    # keep the final states and drop the lift: its buffers need not be held
    # while the bundles are built
    X = X.copy()
    xh, Xe, X1, X2 = X[0], X[1:1 + S], X[1 + S:1 + 2 * S], X[1 + 2 * S:]
    del lift
    for run in (j12_run, dcost_f, delta_f):
        run *= dt

    xT = xh[:, None]
    hx = coeffs.h_x(xT)[:, 0]
    hxx = coeffs.h_xx(xT)[:, 0, 0]
    j12_terms = hx * (X1 + X2) + 0.5 * hxx * X1 * X1 + j12_run + delta_f
    cost_inc = coeffs.h(Xe.reshape(S * P, 1)).reshape(S, P) - coeffs.h(xT) + dcost_f
    # the sup of the means is the mean of the sup: dividing by P is monotone
    sup_mom = dict(zip(rows, sup_sq / P))
    return [VariationBundle(
        spike=sp, eps_snapped=(j1 - j0) * dt,
        norms={k: float(sup_mom[k][s]) ** 0.5 for k in NORM_KEYS},
        j12_terms=j12_terms[s], cost_increment=cost_inc[s],
        terminal={"X1_T": X1[s].copy(), "X12_T": X1[s] + X2[s], "Xhat_T": xh.copy()},
        tables={} if tables is None else {k: tables[rows.index(k), s] for k in NORM_KEYS},
        tabulated=tabulated,
    ) for s, (sp, (j0, j1)) in enumerate(zip(spikes, win))]


def remainder_rates(
    coeffs: CoefficientSet,
    kernel: DiscreteLaplaceKernel,
    u_hat: ControlPath,
    v: ControlPath,
    tau: float,
    eps_list,
    xi,
    ens: BrownianEnsemble,
) -> dict:
    """Fit the eps-decay of the expansion norms across a spike-size sweep.

    Common random numbers: one co-simulation serves every eps, on the same
    ensemble and the same reference state.  Returns per-eps rows, the per-eps
    bundles, and per-quantity slope fits against eps and against the
    combined kernel-window norm.
    """
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size < 4:
        raise ValueError("need at least 4 eps values for a slope fit")
    grid = ens.grid
    if np.any(np.round(eps_arr / grid.dt) < 4):
        raise ValueError(
            "every spike width must span at least 4 grid steps; refine the "
            "time grid or drop the smallest eps values"
        )
    spikes = [SpikeSpec(tau=tau, eps=float(eps), v=v) for eps in eps_arr]
    bundles = _spike_cosimulation(coeffs, kernel, u_hat, spikes, xi, ens)

    # ||K_b||_{1,eps} + ||K_sigma||_{2,eps}, closed form when available
    kn = [knorm_eps(kernel, "b", 1.0, float(eps)) + knorm_eps(kernel, "sigma", 2.0, float(eps))
          for eps in eps_arr]

    rows = []
    norms = {k: [] for k in NORM_KEYS}
    dj_rows = []
    for bundle, k_eps in zip(bundles, kn):
        dj, dj_se = bundle.delta_j12()
        dj_rows.append((bundle.eps_snapped, dj, dj_se))
        for k in NORM_KEYS:
            norms[k].append(bundle.norms[k])
            rows.append({"quantity": k, "eps": bundle.eps_snapped,
                         "norm": bundle.norms[k], "knorm_combo": k_eps})

    fits = {}
    for k in NORM_KEYS:
        vals = np.asarray(norms[k])
        if np.all(vals == 0.0):
            fits[k] = {"exact_zero": True}
            continue
        f_eps = fit_loglog(eps_arr, vals)
        f_kn = fit_loglog(np.asarray(kn), vals)
        fits[k] = {"exact_zero": False, "eps_slope": f_eps["slope"],
                   "eps_r2": f_eps["r2"], "eps_slope_se": f_eps["se_slope"],
                   "knorm_slope": f_kn["slope"], "knorm_r2": f_kn["r2"]}

    dj_abs = np.array([abs(d) for _, d, _ in dj_rows])
    dj_fit = None
    if np.all(dj_abs > 0):
        f = fit_loglog(eps_arr, dj_abs)
        dj_fit = {"eps_slope": f["slope"], "r2": f["r2"], "se_slope": f["se_slope"]}

    return {"rows": rows, "fits": fits, "delta_j12": dj_rows, "delta_j12_fit": dj_fit,
            "bundles": bundles}
