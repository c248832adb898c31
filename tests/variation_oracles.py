"""The spike co-simulation loop in its plainest form (test-only oracle).

Every coefficient is taken per step at the current states, one spike at a
time: from its Taylor tables where the tags fix its degree in x (the tables
the co-simulation reads, so that both do the same arithmetic on the states),
else from its evaluator.  The Hessian forcing terms always run, each running
integral is scaled by dt every step and the sup-moments are means of squared
copies.  The tests compare ``variation._spike_cosimulation`` with it.
"""

import numpy as np

from volterra_smp.coefficients import coeff_tables, horner
from volterra_smp.simulate import LiftStep, xi_table
from volterra_smp.variation import NORM_KEYS, VariationBundle

NAMES = "b sigma b_x sigma_x b_xx sigma_xx f f_x f_xx"


def _coeff_eval(coeffs, taylor, control, m, dt, x, names=NAMES):
    """name -> its (P,) values at step m along ``control`` at the states x
    (P,): by Horner from ``taylor`` (name -> Taylor rows along the control)
    where it has the name, else by one evaluator call."""
    return {name: horner(taylor[name][m], x, np.empty(x.shape)) if name in taylor
            else getattr(coeffs, name)(m * dt, control.at(m), x[:, None]).reshape(x.shape)
            for name in names.split()}


def _taylor_rows(coeffs, control, grid, names) -> dict:
    """name -> its Taylor coefficients in x along the control as (N+1, d+1)
    rows, row m = (c_0, ..., c_d) at step m."""
    return {name: np.stack([c.reshape(-1) for c in coefs], 1)
            for name, coefs in zip(names, coeff_tables(coeffs, control, grid, names))}


def spike_cosimulation(coeffs, kernel, u_hat, spikes, xi, ens, store=False,
                       observer=None) -> list:
    """Co-simulate X_hat and, per spike, (X^eps, X1, X2) in one lift stack.

    The stack holds 1 + 3S slabs: X_hat, then the S spiked states, then the
    S first- and the S second-order processes.
    Before the earliest spike index only X_hat advances: there X1 = X2 = 0
    and X^eps = X_hat exactly, so at that index the spiked slabs take the
    reference slab's block state (``LiftStep.fork``) and the X1, X2 slabs
    start from zero.  The forcings are written straight into the lift's drive
    slots.  The spikes share one value ``v``.

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
    win = np.array([sp.window(grid) for sp in spikes])  # (S, 2)
    j_start = int(win[:, 0].min())
    xi_tab = xi_table(xi, grid, 1)[:, 0]
    coeffs.self_test()
    degrees = coeffs.tags.state_degrees()
    tab_u, tab_v = (_taylor_rows(coeffs, c, grid, degrees) for c in (u_hat, v))

    G = 1 + 3 * S
    lift = LiftStep(kernel, dt, ens.dW, G)
    X = lift.x[:, 0]   # the lift's output rows: each advance rewrites them in place
    X[0] = xi_tab[0]
    xh, Xe, X1, X2 = X[0], X[1:1 + S], X[1 + S:1 + 2 * S], X[1 + 2 * S:]

    # dX, X1, dX1, X2, dX12 in NORM_KEYS order, squared in place once stored.
    # Nothing reads them before the next step's advance, so until then their
    # rows are that step's scratch.
    diffs = np.empty((len(NORM_KEYS), S, P))
    work = diffs[:2]
    sup_mom = np.zeros((len(NORM_KEYS), S))
    j12_run = np.zeros((S, P))   # running f-expansion integral
    dcost_f = np.zeros((S, P))   # running f(u^eps, X^eps) - f(u_hat, X_hat)
    delta_f = np.zeros((S, P))   # running spike integral of delta f
    tables = np.zeros((len(NORM_KEYS), S, P, N + 1)) if store else None

    for m in range(j_start):
        ch = _coeff_eval(coeffs, tab_u, u_hat, m, dt, xh, "b sigma")
        Fb, Fs = (f[:, 0] for f in lift.drives())
        Fb[0], Fs[0] = ch["b"], ch["sigma"]
        lift.advance(1)
        xh += xi_tab[m + 1]
    lift.fork(0, slice(1, 1 + S))   # X^eps = X_hat here, X1 = X2 = 0

    for m in range(j_start, N):
        active = (win[:, 0] <= m) & (m < win[:, 1])
        ch = _coeff_eval(coeffs, tab_u, u_hat, m, dt, xh)
        bxh, sxh = ch["b_x"], ch["sigma_x"]
        # forcings go straight into the lift's drive slots for this step
        Fb, Fs = (f[:, 0] for f in lift.drives())
        F1b, F1s, F2b, F2s = Fb[1 + S:1 + 2 * S], Fs[1 + S:1 + 2 * S], Fb[1 + 2 * S:], Fs[1 + 2 * S:]
        Fb[0], Fs[0] = ch["b"], ch["sigma"]

        # spiked state forcing (full nonlinear coefficients at X^eps), and
        # the running cost at X^eps, one spike at a time
        fe = np.empty((S, P))
        for s in range(S):
            ce = (_coeff_eval(coeffs, tab_v, v, m, dt, Xe[s], "b sigma f") if active[s]
                  else _coeff_eval(coeffs, tab_u, u_hat, m, dt, Xe[s], "b sigma f"))
            Fb[1 + s], Fs[1 + s], fe[s] = ce["b"], ce["sigma"], ce["f"]

        # first/second-order forcings with frozen derivatives at (u_hat, X_hat)
        np.multiply(bxh, X1, out=F1b)
        np.multiply(sxh, X1, out=F1s)
        for F2, d1, d2 in ((F2b, bxh, ch["b_xx"]), (F2s, sxh, ch["sigma_xx"])):
            np.multiply(d1, X2, out=F2)                          # d1 X2 + (d2 / 2) X1 X1
            np.multiply(0.5 * d2, X1, out=work[0])
            work[0] *= X1
            F2 += work[0]
        cv = {}
        if active.any():
            cv = _coeff_eval(coeffs, tab_v, v, m, dt, xh, "b sigma b_x sigma_x f")
            cv = {"db": cv["b"] - Fb[0], "ds": cv["sigma"] - Fs[0],
                  "dbx": cv["b_x"] - bxh, "dsx": cv["sigma_x"] - sxh,
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
        work[0] *= ch["f_x"]
        np.multiply(0.5 * ch["f_xx"], X1, out=work[1])
        work[1] *= X1
        work[0] += work[1]
        work[0] *= dt
        j12_run += work[0]
        np.subtract(fe, ch["f"], out=work[0])
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
        np.square(diffs, out=diffs)
        np.maximum(sup_mom, np.mean(diffs, axis=2), out=sup_mom)
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
    return [VariationBundle(
        spike=sp, eps_snapped=(j1 - j0) * dt,
        norms={k: float(sup_mom[i, s]) ** 0.5 for i, k in enumerate(NORM_KEYS)},
        j12_terms=j12_terms[s], cost_increment=cost_inc[s],
        terminal={"X1_T": X1[s].copy(), "X12_T": X1[s] + X2[s], "Xhat_T": xh.copy()},
        tables={} if tables is None else dict(zip(NORM_KEYS, tables[:, s])),
    ) for s, (sp, (j0, j1)) in enumerate(zip(spikes, win))]
