"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines; the suite is the exit gate of the package and targets a
total runtime of a few minutes on a laptop.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from volterra_smp.bsde import (BSDEInstance, apriori_ratio, lsmc_relative_error,
                               martingale_check, solve_bsde_closedform)
from volterra_smp.bsee import assemble_adjoints, assemble_first_adjoint
from volterra_smp.bsvie import (bsee_to_bsvie_first, bsee_to_bsvie_second,
                                bsvie_residual_first, bsvie_residual_second,
                                m_constraint_residual_first, reconstruct_second_field)
from volterra_smp.coefficients import ControlPath, make_problem
from volterra_smp.grids import TimeGrid
from volterra_smp.harness import resolve_config, run_experiment, write_results
from volterra_smp.kernels import (AnalyticKernel, build_fractional_lift, constant_kernel,
                                  exponential_kernel, knorm_eps, quadrature_error)
from volterra_smp.maxprinciple import (check_variational_inequality, classical_adjoint_gaps,
                                       construct_argmax_control, duality_residuals,
                                       duality_stats, perturb_control)
from volterra_smp.simulate import sample_brownian, simulate_sve
from volterra_smp.stats import fit_loglog
from volterra_smp.variation import SpikeSpec, remainder_rates

SEED = 20260810


def report(cid: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {cid}: {detail}")
    assert passed, f"criterion {cid}: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_lift_identity():
    grid = TimeGrid(1.0, 2 ** 8)
    ens = sample_brownian(grid, 64, SEED)
    kernel = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e4, 20, alpha=1 / 3)
    coeffs = make_problem("bilinear_lq")
    u = ControlPath.constant(0.1, grid)
    Xl = simulate_sve(coeffs, u, kernel, 0.5, ens, mode="lift")
    Xd = simulate_sve(coeffs, u, kernel, 0.5, ens, mode="direct")
    dev = float(np.max(np.abs(Xl - Xd)))
    report("01 lift identity", dev <= 1e-10,
           f"max |aggregated lift - direct recursion| = {dev:.3e} (tol 1e-10)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_kernel_quadrature():
    t = np.geomspace(0.01, 1.0, 200)
    k100 = build_fractional_lift(0.7, 0.7, 0.55, 1e-3, 1e5, 100, alpha=0.75)
    k200 = build_fractional_lift(0.7, 0.7, 0.55, 1e-3, 1e5, 200, alpha=0.75)
    r100 = quadrature_error(k100, t, "b")["sup_rel"]
    r200 = quadrature_error(k200, t, "b")["sup_rel"]
    report("02 kernel quadrature", r100 <= 0.01 and r200 < r100,
           f"sup rel {r100:.3e} at 100 nodes (tol 1e-2), {r200:.3e} at 200")


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_window_norms():
    worst = 0.0
    hoelder_ok = True
    for beta, q in ((0.75, 2.0), (0.8, 1.0), (0.9, 6.0)):
        ana = AnalyticKernel("fractional", beta=beta)
        for eps in (0.05, 0.2, 0.5, 1.0):
            closed = knorm_eps(ana, "b", q, eps)
            numeric = knorm_eps(ana, "b", q, eps, closed_form=False)
            worst = max(worst, abs(closed - numeric))
            if q > 1:
                lhs = knorm_eps(ana, "b", 1.0, eps)
                hoelder_ok &= lhs <= closed * eps ** (1.0 - 1.0 / q) * (1 + 1e-12)
    report("03 window norms", worst <= 1e-8 and hoelder_ok,
           f"closed vs quadrature max dev {worst:.3e} (tol 1e-8), "
           f"interpolation comparison holds: {hoelder_ok}")


# -- 4 & 5 -------------------------------------------------------------------

@pytest.fixture(scope="module")
def rate_sweeps():
    grid = TimeGrid(1.0, 2 ** 10)
    ens = sample_brownian(grid, 10 ** 4, SEED)
    coeffs = make_problem("bilinear_lq")
    uh = ControlPath.constant(0.1, grid)
    v = ControlPath.constant(1.0, grid)
    eps_list = [2.0 ** -j for j in range(3, 8)]
    frac = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32, alpha=1 / 3)
    res_frac = remainder_rates(coeffs, frac, uh, v, 0.25, eps_list, 0.3, ens)
    res_flat = remainder_rates(coeffs, constant_kernel(), uh, v, 0.25, eps_list, 0.3, ens)
    return res_frac, res_flat


def test_criterion_04_spike_rates(rate_sweeps):
    res_frac, res_flat = rate_sweeps
    base = min(0.8, 0.9 - 0.5)
    ok = True
    parts = []
    for res, targets, tag in ((res_frac, {"X1": base, "dX1": 2 * base}, "singular"),
                              (res_flat, {"X1": 0.5, "dX1": 1.0}, "classical")):
        for q, target in targets.items():
            slope = res["fits"][q]["eps_slope"]
            ok &= abs(slope - target) <= 0.2
            parts.append(f"{tag} {q}: {slope:.3f} (target {target:.2f})")
    report("04 spike-variation rates", ok, "; ".join(parts) + " (tol +-0.2)")


def test_criterion_05_cost_remainder_superlinear(rate_sweeps):
    res_frac, _ = rate_sweeps
    fit = res_frac["delta_j12_fit"]
    ok = fit is not None and fit["eps_slope"] - fit["se_slope"] >= 1.0
    report("05 cost-expansion remainder", ok,
           f"|delta J| slope {fit['eps_slope']:.3f} - se {fit['se_slope']:.3f} >= 1.0")


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_bsde_closed_forms():
    grid = TimeGrid(1.0, 256)
    ens = sample_brownian(grid, 4000, SEED)
    worst = 0.0
    for inst in (BSDEInstance(grid, kappa=2.0, terminal_const=3.0),
                 BSDEInstance(grid, kappa=2.0, terminal_wt=1.0),
                 BSDEInstance(grid, kappa=2.0, generator=1.0)):
        sol = solve_bsde_closedform(inst)
        mc = martingale_check(sol.p_values(ens), sol.q_values(ens),
                              inst.generator, inst.kappa, ens)
        worst = max(worst, mc["max_pathwise"])
    inst = BSDEInstance(grid, kappa=1.0, terminal_const=0.5, terminal_wt=1.0, generator=0.7)
    err = lsmc_relative_error(inst, ens, degree=1)
    report("06 scalar backward solver", worst <= 1e-10 and err <= 1e-3,
           f"martingale residual {worst:.3e} (tol 1e-10), "
           f"regression error {err:.3e} at 4e3 paths (tol 1e-3)")


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_apriori_kappa_independence():
    grid = TimeGrid(1.0, 512)
    ens = sample_brownian(grid, 4000, SEED)
    ok = True
    parts = []
    for label, alpha, kw in (("brownian-terminal", 0.0, dict(terminal_wt=1.0)),
                             ("unit-generator", 1.0 / 3.0, dict(generator=1.0))):
        ratios = []
        for kappa in (1.0, 10.0, 100.0, 1000.0, 10000.0):
            inst = BSDEInstance(grid, kappa=kappa, alpha=alpha, **kw)
            ratios.append(apriori_ratio(inst, solve_bsde_closedform(inst), ens)["ratio"])
        finite = all(np.isfinite(r) for r in ratios)
        spread = max(ratios) / min(ratios)
        ok &= finite and spread < 3.0
        parts.append(f"{label}: spread {spread:.2f}")
    report("07 weighted-estimate stability", ok, "; ".join(parts) + " (< 3 across kappa)")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_picard_contraction():
    grid = TimeGrid(1.0, 256)
    ens = sample_brownian(grid, 8, SEED)
    kernel = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e4, 20, alpha=1 / 3)
    coeffs = make_problem("lq_linear_cost")
    adj = assemble_first_adjoint(coeffs, ControlPath.constant(0.5, grid), None,
                                 kernel, ens, tol=1e-10, max_iter=50)
    d = adj.first.distances
    ratios = [d[i + 1] / d[i] for i in range(2, len(d) - 1) if d[i] > 0]
    ok = len(d) <= 50 and d[-1] < 1e-10 and all(r <= 0.9 for r in ratios)
    report("08 fixed-point iteration", ok,
           f"{len(d)} iterations, worst ratio from #3 "
           f"{max(ratios) if ratios else 0.0:.3f} (<= 0.9), final {d[-1]:.2e}")


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_duality_residuals():
    grid = TimeGrid(1.0, 256)
    kernel = build_fractional_lift(0.8, 0.9, None, 1e-3, 1e4, 20, alpha=1 / 3)

    # deterministic-field oracle
    lq = make_problem("lq_linear_cost")
    e_det = sample_brownian(grid, 2000, SEED)
    uh = ControlPath.constant(0.5, grid)
    xh = simulate_sve(lq, uh, kernel, 0.4, e_det)
    adj = assemble_adjoints(lq, uh, xh, kernel, e_det)
    spike = SpikeSpec(tau=0.25, eps=0.0625, v=ControlPath.constant(-0.5, grid))
    res = duality_residuals(lq, spike, adj, e_det, xi=0.4)
    det1, det2 = duality_stats(res["first"]), duality_stats(res["second"])
    det_ok = det1["exact_max"] <= 1e-8 and det2["exact_max"] <= 1e-8

    # stochastic state-free oracle with 1/sqrt(paths) shrinkage of the SE
    sf = make_problem("state_free_quadratic")
    uh2 = ControlPath.constant(0.2, grid)
    v2 = ControlPath.constant(0.9, grid)
    ses = []
    sto_ok = True
    z1 = z2 = 0.0
    for n_paths in (1000, 4000, 16000):
        e = sample_brownian(grid, n_paths, SEED)
        xh2 = simulate_sve(sf, uh2, kernel, 0.2, e, self_test=False)
        a2 = assemble_adjoints(sf, uh2, xh2, kernel, e)
        sp = SpikeSpec(tau=0.25, eps=0.0625, v=v2)
        res = duality_residuals(sf, sp, a2, e, xi=0.2)
        r1 = duality_stats(res["first"])
        ses.append(r1["display_se"])
        if n_paths == 16000:
            r2 = duality_stats(res["second"])
            z1 = abs(r1["display_mean"]) / r1["display_se"]
            z2 = abs(r2["display_mean"]) / max(r2["display_se"], 1e-300)
            sto_ok = (z1 <= 3.0 and z2 <= 3.0 and r1["exact_max"] <= 1e-8
                      and r2["exact_max"] <= 1e-8)
    slope = fit_loglog(np.array([1000.0, 4000.0, 16000.0]), np.array(ses))["slope"]
    ok = det_ok and sto_ok and abs(slope + 0.5) <= 0.15
    report("09 duality residuals", ok,
           f"deterministic exact {max(det1['exact_max'], det2['exact_max']):.2e} "
           f"(tol 1e-8); stochastic z-scores {z1:.2f}/{z2:.2f} (<= 3); "
           f"SE slope {slope:.3f} (target -0.5 +- 0.15)")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_variational_inequality():
    grid = TimeGrid(1.0, 256)
    ens = sample_brownian(grid, 500, SEED)
    lq = make_problem("lq_linear_cost")
    kernel = constant_kernel(alpha=0.0)
    u0 = ControlPath.constant(0.0, grid)
    adj0 = assemble_adjoints(lq, u0, simulate_sve(lq, u0, kernel, 0.4, ens),
                             kernel, ens, tol=1e-13)
    uh = construct_argmax_control(lq, adj0, grid)
    xh = simulate_sve(lq, uh, kernel, 0.4, ens)
    adj = assemble_adjoints(lq, uh, xh, kernel, ens, tol=1e-13)
    rep = check_variational_inequality(lq, uh, adj, lq.control_domain.points, ens, xh)

    ub = perturb_control(uh, grid, 0.25, 0.375, 1.0)
    xb = simulate_sve(lq, ub, kernel, 0.4, ens)
    adjb = assemble_adjoints(lq, ub, xb, kernel, ens, tol=1e-13)
    repb = check_variational_inequality(lq, ub, adjb, lq.control_domain.points, ens, xb)
    viol = [t for (t, v, g, s, ok_) in repb.rows if not ok_]
    localized = (not repb.passed) and viol and min(viol) >= 0.25 and max(viol) < 0.375

    cl = classical_adjoint_gaps(lq, uh, lq.control_domain.points, grid, xh)
    gaps = {(t, v): g for (t, v, g, s, ok_) in rep.rows}
    dev = max(abs(gaps[key] - cl["gaps"][key]) for key in cl["gaps"])

    ok = rep.passed and rep.min_gap >= -1e-8 and localized and dev <= 1e-10
    report("10 variational inequality", ok,
           f"argmax min gap {rep.min_gap:.2e} (>= -1e-8); perturbation localized "
           f"to [0.25, 0.375): {localized}; classical-checker deviation {dev:.2e} "
           f"(tol 1e-10)")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_volterra_bridge():
    grid = TimeGrid(1.0, 256)
    ens = sample_brownian(grid, 500, SEED)
    lq = make_problem("lq_linear_cost")
    uh = ControlPath.constant(0.3, grid)
    worst_first = 0.0
    for kernel in (constant_kernel(alpha=0.0), exponential_kernel(2.0, alpha=0.0)):
        xh = simulate_sve(lq, uh, kernel, 0.4, ens)
        adj = assemble_adjoints(lq, uh, xh, kernel, ens, tol=1e-13)
        tup = bsee_to_bsvie_first(adj, kernel)
        res = bsvie_residual_first(tup, lq, uh, kernel, ens)
        worst_first = max(worst_first, res["res_line1"], res["res_line2"],
                          m_constraint_residual_first(tup, ens))

    sf = make_problem("state_free_quadratic")
    k0 = constant_kernel(alpha=0.0)
    uh2 = ControlPath.constant(0.2, grid)
    xh2 = simulate_sve(sf, uh2, k0, 0.2, ens)
    adj2 = assemble_adjoints(sf, uh2, xh2, k0, ens, tol=1e-13)
    tup1 = bsee_to_bsvie_first(adj2, k0)
    m_res = m_constraint_residual_first(tup1, ens)
    tup2 = bsee_to_bsvie_second(sf, adj2, k0, ens, r_subgrid=8)
    rec = reconstruct_second_field(tup2, k0)
    rt = float(np.max(np.abs(rec - adj2.second.P[:, :, :, 0, 0])))
    res2 = bsvie_residual_second(tup2, sf, adj2, k0)

    ok = worst_first <= 1e-8 and rt <= 1e-8 and m_res <= 1e-8 and max(res2.values()) <= 1e-8
    report("11 Volterra bridge", ok,
           f"first-order residuals {worst_first:.2e}; quadratic-terminal round "
           f"trip {rt:.2e}; representation constraint {m_res:.2e} (tol 1e-8)")


# -- 12 ---------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    raw = {"grid": {"n_paths": 200, "n_steps": 64}, "kernel": {"n_nodes": 12}, "seed": 31}
    cfg = resolve_config(raw)
    write_results(run_experiment("all", cfg), cfg, tmp_path / "a")
    # the same config again in a fresh interpreter, under another string-hash seed
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(raw))
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    proc = subprocess.run([sys.executable, "-m", "volterra_smp.cli", "all", "--config",
                           str(cfg_file), "--out", str(tmp_path / "b")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert proc.returncode in (0, 1), proc.stderr
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        blobs.append({p.name: p.read_bytes() for p in sorted(out.glob("*"))
                      if p.name != "timings.json"})
    same = blobs[0].keys() == blobs[1].keys() and all(
        blobs[0][k] == blobs[1][k] for k in blobs[0])
    report("12 determinism", same,
           f"{len(blobs[0])} output files byte-identical between an in-process run and "
           f"a fresh interpreter's run (PYTHONHASHSEED={hash_seed})")
