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

from .coefficients import CoefficientSet, ControlPath, coeff_tables
from .grids import TimeGrid
from .kernels import DiscreteLaplaceKernel, knorm_eps
from .simulate import BrownianEnsemble, LiftStep, _xi_table
from .stats import fit_loglog, mc_mean_se

NORM_KEYS = ("dX", "X1", "dX1", "X2", "dX12")
EXPECTED_POWER = {"dX": 1, "X1": 1, "dX1": 2, "X2": 2, "dX12": 3}


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
    tabulated: tuple = ()       # evaluators read from coeff_tables, not per step

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

    Every evaluator the structural tags make state-free is read from one
    ``coeff_tables`` call per control (u_hat and v), after
    ``CoefficientSet.self_test`` has checked the tags; only the others are
    evaluated per step, and each bundle's ``tabulated`` names the tabulated
    ones.  A Hessian term whose tabulated Hessian is zero along u_hat would
    add exact zeros and is skipped.

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
    xi_tab = _xi_table(xi, grid, 1)[:, 0]
    du = v.values.shape[-1]

    # name -> its tables along (u_hat, v); rows lack the path axis, so every
    # read below indexes the trailing axes only.  The self-test checks the
    # tags the tables rest on.
    coeffs.self_test()
    tabulated = coeffs.tags.state_free_evaluators()
    tabs = dict(zip(tabulated, zip(coeff_tables(coeffs, u_hat, grid, tabulated),
                                   coeff_tables(coeffs, v, grid, tabulated))))

    def at(m, names, x, along=0):
        """The evaluators ``names`` at step m along u_hat (0) or v (1), at x."""
        u = (u_hat, v)[along].at(m)
        return {name: tabs[name][along][m] if name in tabs
                else getattr(coeffs, name)(m * dt, u, x) for name in names}

    hessians = tuple(name for name in ("b_xx", "sigma_xx", "f_xx")
                     if name not in tabs or np.any(tabs[name][0]))
    at_hat = ("b", "sigma", "b_x", "sigma_x", "f", "f_x") + hessians
    spiked_evaluated = [name for name in ("b", "sigma", "f") if name not in tabs]

    G = 1 + 3 * S
    lift = LiftStep(kernel, dt, ens.dW, G)
    X = lift.x[:, 0]   # the lift's output rows: each advance rewrites them in place
    X[0] = xi_tab[0]
    xh, Xe, X1, X2 = X[0], X[1:1 + S], X[1 + S:1 + 2 * S], X[1 + 2 * S:]

    # dX, X1, dX1, X2, dX12 in NORM_KEYS order.  Nothing reads them before the
    # next step's advance, so until then their rows are that step's scratch:
    # the loop allocates no (S, P) products.
    diffs = np.empty((len(NORM_KEYS), S, P))
    work, xe = diffs[:2], diffs[4]
    sup_sq = np.zeros((len(NORM_KEYS), S))   # sup over steps of the path sums of diffs^2
    sq = np.empty_like(sup_sq)
    j12_run = np.zeros((S, P))   # running f-expansion integral
    dcost_f = np.zeros((S, P))   # running f(u^eps, X^eps) - f(u_hat, X_hat)
    delta_f = np.zeros((S, P))   # running spike integral of delta f
    tables = np.zeros((len(NORM_KEYS), S, P, N + 1)) if store else None

    for m in range(j_start):
        ch = at(m, ("b", "sigma"), xh[:, None])
        Fb, Fs = (f[:, 0] for f in lift.drives())
        Fb[0], Fs[0] = ch["b"][..., 0], ch["sigma"][..., 0]
        lift.advance(1)
        xh += xi_tab[m + 1]
    lift.fork(0, slice(1, 1 + S))   # X^eps = X_hat here, X1 = X2 = 0

    def spiked(name):
        """Evaluator ``name`` at the S spiked states of the current step, (S, P)
        or, tabulated, (S, 1)."""
        if name in tabs:
            return np.where(active[:, None], tabs[name][1][m], tabs[name][0][m])
        return getattr(coeffs, name)(t, ue, xe_col).reshape(S, P)

    ue_key = None
    for m in range(j_start, N):
        t, u_h, v_m = m * dt, u_hat.at(m), v.at(m)
        active = (win[:, 0] <= m) & (m < win[:, 1])
        ch = at(m, at_hat, xh[:, None])
        bxh, sxh = ch["b_x"][..., 0, 0], ch["sigma_x"][..., 0, 0]
        # forcings go straight into the lift's drive slots for this step
        Fb, Fs = (f[:, 0] for f in lift.drives())
        F1b, F1s, F2b, F2s = Fb[1 + S:1 + 2 * S], Fs[1 + S:1 + 2 * S], Fb[1 + 2 * S:], Fs[1 + 2 * S:]
        Fb[0], Fs[0] = ch["b"][..., 0], ch["sigma"][..., 0]

        # spiked state forcing (full nonlinear coefficients at X^eps); the
        # control rows change only with the active windows and the controls,
        # and off every window they are u_hat's one value
        if spiked_evaluated:
            key = (active.tobytes(), u_h.tobytes(), v_m.tobytes())
            if key != ue_key:
                ue_key = key
                ue = u_h if not active.any() else np.where(
                    active[:, None, None], np.broadcast_to(v_m, (P, du)),
                    np.broadcast_to(u_h, (P, du))).reshape(S * P, du)
            np.copyto(xe, Xe)
            xe_col = xe.reshape(S * P, 1)

        Fb[1:1 + S] = spiked("b")
        Fs[1:1 + S] = spiked("sigma")

        # first/second-order forcings with frozen derivatives at (u_hat, X_hat)
        np.multiply(bxh, X1, out=F1b)
        np.multiply(sxh, X1, out=F1s)
        for F2, d1, d2 in ((F2b, bxh, "b_xx"), (F2s, sxh, "sigma_xx")):
            np.multiply(d1, X2, out=F2)                          # d1 X2 + (d2 / 2) X1 X1
            if d2 in hessians:
                np.multiply(0.5 * ch[d2][..., 0, 0, 0], X1, out=work[0])
                work[0] *= X1
                F2 += work[0]
        cv = {}
        if active.any():
            cv = at(m, ("b", "sigma", "b_x", "sigma_x", "f"), xh[:, None], along=1)
            cv = {"db": cv["b"][..., 0] - Fb[0], "ds": cv["sigma"][..., 0] - Fs[0],
                  "dbx": cv["b_x"][..., 0, 0] - bxh, "dsx": cv["sigma_x"][..., 0, 0] - sxh,
                  "df": cv["f"] - ch["f"]}
            F1b[active] += cv["db"]
            F1s[active] += cv["ds"]
            F2b[active] += cv["dbx"] * X1[active]
            F2s[active] += cv["dsx"] * X1[active]
            delta_f[active] += cv["df"] * dt
        if observer is not None:
            observer(m, lift.state(1 + S), lift.state(1 + 2 * S),
                     (F1b[0], F1s[0], F2b[0], F2s[0]), cv if active[0] else {})

        # running cost pieces (left-point rule)
        # j12_run += (f_x (X1 + X2) + (f_xx / 2) X1 X1) dt, in that operation order
        np.add(X1, X2, out=work[0])
        work[0] *= ch["f_x"][..., 0]
        if "f_xx" in hessians:
            np.multiply(0.5 * ch["f_xx"][..., 0, 0], X1, out=work[1])
            work[1] *= X1
            work[0] += work[1]
        work[0] *= dt
        j12_run += work[0]
        np.subtract(spiked("f"), ch["f"], out=work[0])
        work[0] *= dt
        dcost_f += work[0]

        lift.advance()
        X[:1 + S] += xi_tab[m + 1]
        np.subtract(Xe, xh, out=diffs[0])
        diffs[1], diffs[3] = X1, X2
        np.subtract(diffs[0], X1, out=diffs[2])
        np.subtract(diffs[2], X2, out=diffs[4])
        if store:
            tables[..., m + 1] = diffs
        np.einsum("ksp,ksp->ks", diffs, diffs, out=sq)
        np.maximum(sup_sq, sq, out=sup_sq)
    # keep the final states and drop the lift: its buffers need not be held
    # while the bundles are built
    X = X.copy()
    xh, Xe, X1, X2 = X[0], X[1:1 + S], X[1 + S:1 + 2 * S], X[1 + 2 * S:]
    del lift

    xT = xh[:, None]
    hx = coeffs.h_x(xT)[:, 0]
    hxx = coeffs.h_xx(xT)[:, 0, 0]
    j12_terms = hx * (X1 + X2) + 0.5 * hxx * X1 * X1 + j12_run + delta_f
    cost_inc = coeffs.h(Xe.reshape(S * P, 1)).reshape(S, P) - coeffs.h(xT) + dcost_f
    # the sup of the means is the mean of the sup: dividing by P is monotone
    sup_mom = sup_sq / P
    return [VariationBundle(
        spike=sp, eps_snapped=(j1 - j0) * dt,
        norms={k: float(sup_mom[i, s]) ** 0.5 for i, k in enumerate(NORM_KEYS)},
        j12_terms=j12_terms[s], cost_increment=cost_inc[s],
        terminal={"X1_T": X1[s].copy(), "X12_T": X1[s] + X2[s], "Xhat_T": xh.copy()},
        tables={} if tables is None else dict(zip(NORM_KEYS, tables[:, s])),
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
    analytic = kernel.analytic_b is not None
    kb, ks = (kernel.analytic_b, kernel.analytic_sigma) if analytic else (kernel, kernel)
    kn = [knorm_eps(kb, "b", 1.0, float(eps)) + knorm_eps(ks, "sigma", 2.0, float(eps))
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

    return {"rows": rows, "fits": fits, "eps": eps_arr, "knorm": np.asarray(kn),
            "delta_j12": dj_rows, "delta_j12_fit": dj_fit, "bundles": bundles}
