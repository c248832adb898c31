"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (package
import, config resolution, kernel construction) and runs one closed-loop pass
in ``run_pass``.  A pass returns its gated operations: each ``Op`` carries the
checks it must pass and the canonical bytes of its output, which the gate
compares across all passes of a run.

Module functions are always reached through their module (``simulate.x``,
not ``from ... import x``) so that the tracer's patches take effect.
"""

from __future__ import annotations

import json
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Op:
    name: str
    checks: list        # (check name, passed, detail)
    output: bytes       # canonical output, identical on every pass of a run


def _floats(values) -> bytes:
    return b"".join(struct.pack("<d", float(v)) for v in values)


def _arrays(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays)


def _geometric(distances, need_converged_below=None) -> tuple[bool, str]:
    """Picard check as the harness states it: ratios from the third iterate on
    stay <= 0.9, at most 50 iterations, and (optionally) converged below tol."""
    d = list(distances)
    ratios = [d[i + 1] / d[i] for i in range(2, len(d) - 1) if d[i] > 0]
    ok = all(r <= 0.9 for r in ratios) and len(d) <= 50
    if need_converged_below is not None:
        ok = ok and bool(d) and d[-1] < need_converged_below
    return ok, f"{len(d)} iterations, worst ratio {max(ratios) if ratios else 0.0:.3f}"


# run_all's experiments minus the two whose checks fail on some seeds whatever
# the code does (see NOTES.md, known defects): bsde-check's
# lsmc_now_mc_convergence compares two Monte Carlo errors with no margin (about
# one seed in eight), and duality's *_display_3se checks are 3-standard-error
# tests (about 0.3 % of seeds each).  A run must be correct on any seed.  The
# bsde layer is measured in ``backward`` instead.
BATTERY_EXPERIMENTS = ("kernels", "simulate", "rates", "adjoint", "mp-check", "bsvie-check")


class Battery:
    """scripts/run_all.py's loop on the three bundled configs, seed overridden,
    over BATTERY_EXPERIMENTS."""

    name = "battery"
    why = ("the experiment battery users run: run_all's seed-robust experiments on the three "
           "bundled configs, with harness orchestration, repeated adjoint stages and rate sweeps")
    threads = "nproc"
    extra_modules = ()

    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.root, self.seed, self.tiny = root, seed, tiny

    def setup(self, workdir: Path) -> None:
        from volterra_smp import harness
        self.paths = sorted((self.root / "scripts" / "configs").glob("*.json"))
        if self.tiny:
            tiny_dir = workdir / "tiny_configs"
            tiny_dir.mkdir(parents=True, exist_ok=True)
            for i, path in enumerate(self.paths):
                raw = json.loads(path.read_text())
                raw["grid"].update(n_steps=32, n_paths=64)
                self.paths[i] = tiny_dir / path.name
                self.paths[i].write_text(json.dumps(raw))
        self.configs = [harness.resolve_config(p, seed=self.seed) for p in self.paths]
        for cfg in self.configs:
            cfg.make_kernel()
        self.out = workdir / "battery_out"

    @property
    def n_ops(self) -> int:
        return len(self.configs)

    def sizes(self) -> dict:
        return {p.stem: {"paths": c.grid["n_paths"], "steps": c.grid["n_steps"],
                         "nodes": c.make_kernel().n_nodes}
                for p, c in zip(self.paths, self.configs)}

    def run_pass(self) -> list:
        from volterra_smp import harness
        shutil.rmtree(self.out, ignore_errors=True)
        ops = []
        for path in self.paths:
            # as run_all does for each config, over BATTERY_EXPERIMENTS
            config = harness.resolve_config(path, seed=self.seed)
            results = {}
            for exp in BATTERY_EXPERIMENTS:
                ok, why = harness._applies(exp, config)
                results[exp] = (harness.RUNNERS[exp](config) if ok else
                                harness.ExperimentResult(exp, {}, [("skipped", True, why)]))
            folder = self.out / path.stem
            harness.write_results(results, config, folder)
            summary = json.loads((folder / "summary.json").read_text())
            checks = [(f"{exp}/{c['name']}", bool(c["passed"]), c["detail"])
                      for exp, res in sorted(summary.items()) for c in res["checks"]]
            # timings.json holds wall-clock values and sits outside the byte contract
            blob = b"".join(p.name.encode() + b"\0" + p.read_bytes()
                            for p in sorted(folder.iterdir()) if p.name != "timings.json")
            ops.append(Op(path.stem, checks, blob))
        return ops


class SpikeSweep:
    """Criterion-04 rate sweep: remainder_rates on bilinear_lq, 32-node lift."""

    name = "spike_sweep"
    why = ("single-threaded forward baseline: the criterion-04 spike co-simulation sweep, "
           "where simulate and variation do nearly all the work")
    threads = 1
    n_ops = 1
    TARGETS = {"X1": 0.4, "dX1": 0.8}   # min(beta_b, beta_sigma - 1/2) and twice it

    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_steps = 256 if tiny else 1024
        self.n_paths = 200 if tiny else 5000
        self.eps_list = [2.0 ** -j for j in range(3, 7 if tiny else 8)]
        self.extra_modules = ()

    def setup(self, workdir: Path) -> None:
        from volterra_smp import coefficients, grids, kernels
        self.grid = grids.TimeGrid(1.0, self.n_steps)
        self.kernel = kernels.build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32, alpha=1 / 3)
        self.u_hat = coefficients.ControlPath.constant(0.1, self.grid)
        self.v = coefficients.ControlPath.constant(1.0, self.grid)

    def sizes(self) -> dict:
        return {"paths": self.n_paths, "steps": self.n_steps, "nodes": self.kernel.n_nodes,
                "eps": len(self.eps_list)}

    def run_pass(self) -> list:
        from volterra_smp import coefficients, simulate, variation
        coeffs = coefficients.make_problem("bilinear_lq")
        ens = simulate.sample_brownian(self.grid, self.n_paths, self.seed)
        res = variation.remainder_rates(coeffs, self.kernel, self.u_hat, self.v, 0.25,
                                        self.eps_list, 0.3, ens)
        checks = []
        for q, target in self.TARGETS.items():
            slope = res["fits"][q]["eps_slope"]
            checks.append((f"slope_{q}", abs(slope - target) <= 0.2,
                           f"slope {slope:.3f}, target {target:.2f} +- 0.2"))
        out = _floats(v for r in res["rows"] for v in (r["eps"], r["norm"], r["knorm_combo"]))
        out += _floats(v for row in res["delta_j12"] for v in row)
        out += json.dumps(res["fits"], sort_keys=True, default=repr).encode()
        return [Op("rate_sweep", checks, out)]


class Backward:
    """Each assemble_adjoints solve path on a singular kernel, then the bridge;
    then the scalar BSDE solvers as bsde-check runs them."""

    name = "backward"
    why = ("backward fields and the Volterra bridge on a 32-node singular kernel over all "
           "three solve paths, plus the scalar BSDE solvers; forward layers nearly idle")
    threads = 1
    # problem, constant control, forcing, regression opt-in, expected solve path
    PROBLEMS = (("lq_linear_cost", 0.3, 0.4, False, "deterministic"),
                ("state_free_quadratic", 0.2, 0.2, False, "affine"),
                ("bilinear_lq", 0.3, 0.4, True, "lsmc"))
    n_ops = len(PROBLEMS) + 1

    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.seed = seed
        self.n_steps = 16 if tiny else 64
        self.n_paths = 100 if tiny else 1000
        # the scalar BSDE runs at the size of the bundled classical_sde config
        self.bsde_steps = 32 if tiny else 256
        self.bsde_paths = 64 if tiny else 2000
        self.extra_modules = ()

    def setup(self, workdir: Path) -> None:
        from volterra_smp import grids, kernels
        self.grid = grids.TimeGrid(1.0, self.n_steps)
        self.kernel = kernels.build_fractional_lift(0.8, 0.9, None, 1e-3, 1e5, 32, alpha=1 / 3)
        self.bsde_grid = grids.TimeGrid(1.0, self.bsde_steps)

    def sizes(self) -> dict:
        return {"paths": self.n_paths, "steps": self.n_steps, "nodes": self.kernel.n_nodes,
                "bsde": {"paths": self.bsde_paths, "steps": self.bsde_steps}}

    def run_pass(self) -> list:
        from volterra_smp import simulate
        ens = simulate.sample_brownian(self.grid, self.n_paths, self.seed)
        return [self._solve(ens, *p) for p in self.PROBLEMS] + [self._bsde()]

    def _bsde(self) -> Op:
        """bsde-check's instances and checks, without lsmc_now_mc_convergence
        (a known defect, see NOTES.md)."""
        from volterra_smp import bsde, simulate
        grid = self.bsde_grid
        ens = simulate.sample_brownian(grid, self.bsde_paths, self.seed)
        checks, values = [], []
        for label, alpha, kw in (("terminal_brownian", 0.0, dict(terminal_wt=1.0)),
                                 ("constant_generator", 1.0 / 3.0, dict(generator=1.0))):
            ratios = []
            for kappa in (1.0, 10.0, 100.0, 1000.0, 10000.0):
                inst = bsde.BSDEInstance(grid, kappa=kappa, alpha=alpha, **kw)
                ratios.append(bsde.apriori_ratio(inst, bsde.solve_bsde_closedform(inst),
                                                 ens)["ratio"])
            spread = max(ratios) / min(ratios) if min(ratios) > 0 else np.inf
            checks.append((f"apriori_{label}", bool(np.all(np.isfinite(ratios))) and spread < 3.0,
                           f"spread {spread:.2f}"))
            values += ratios
        worst = 0.0
        for inst in (bsde.BSDEInstance(grid, kappa=2.0, terminal_const=3.0),
                     bsde.BSDEInstance(grid, kappa=2.0, terminal_wt=1.0),
                     bsde.BSDEInstance(grid, kappa=2.0, generator=1.0)):
            sol = bsde.solve_bsde_closedform(inst)
            mc = bsde.martingale_check(sol.p_values(ens), sol.q_values(ens), inst.generator,
                                       inst.kappa, ens)
            worst = max(worst, mc["max_pathwise"])
        checks.append(("martingale_residual", worst <= 1e-10, f"max {worst:.3e}"))
        inst = bsde.BSDEInstance(grid, kappa=1.0, terminal_const=0.5, terminal_wt=1.0,
                                 generator=0.7)
        err = bsde.lsmc_relative_error(inst, ens, degree=1, mode="later")
        checks.append(("lsmc_affine_oracle", err <= 1e-3, f"relative error {err:.3e}"))
        return Op("bsde", checks, _floats(values + [worst, err]))

    def _solve(self, ens, name, u_val, xi, lsmc, expected_path) -> Op:
        from volterra_smp import bsee, bsvie, coefficients, kernels, simulate
        grid, kern = self.grid, self.kernel
        coeffs = coefficients.make_problem(name)
        u_hat = coefficients.ControlPath.constant(u_val, grid)
        x_hat = simulate.simulate_sve(coeffs, u_hat, kern, xi, ens)
        adj = bsee.assemble_adjoints(coeffs, u_hat, x_hat, kern, ens, tol=1e-13, lsmc=lsmc)
        path = adj.solve_path
        checks = [("solve_path", path == expected_path, f"{path}, expected {expected_path}")]
        if path == "deterministic":
            checks.append(("picard_geometric_first", *_geometric(adj.first.distances, 1e-13)))
        checks.append(("picard_geometric_second", *_geometric(adj.second.distances)))

        th = adj.tgrid.nodes
        dec = np.exp(-th * grid.dt)
        om = kernels.step_decay_weight(th, grid.dt)
        P0, G0 = adj.first.P0[:, :, 0], adj.first.G0[:, :, 0]
        node = float(np.max(np.abs(P0[:-1] - dec[None, :] * P0[1:] - om[None, :] * G0[:-1])))
        # the tier-1 suite asserts these identities for the closed-form paths;
        # the regression path is Monte Carlo and only recorded
        closed_form = path in ("deterministic", "affine")
        if closed_form:
            checks.append(("node_recursion", node <= 1e-10, f"max {node:.3e}"))

        tup = bsvie.bsee_to_bsvie_first(adj, kern, allow_singular=True)
        r1 = bsvie.bsvie_residual_first(tup, coeffs, u_hat, kern, ens)
        values = [node, r1["res_line1"], r1["res_line2"]]
        if closed_form:
            worst = max(r1["res_line1"], r1["res_line2"])
            checks.append(("bridge_first_lines", worst <= 1e-8, f"max {worst:.3e}"))
        if path == "affine":
            mres = bsvie.m_constraint_residual_first(tup, ens)
            values.append(mres)
            checks.append(("m_constraint", mres <= 1e-8, f"residual {mres:.3e}"))

        tup2 = bsvie.bsee_to_bsvie_second(coeffs, adj, kern, ens, r_subgrid="full",
                                          allow_singular=True)
        r2 = bsvie.bsvie_residual_second(tup2, coeffs, adj, kern)
        rec = bsvie.reconstruct_second_field(tup2, kern)
        rt = float(np.max(np.abs(rec - adj.second.P[:, :, :, 0, 0])))
        values += [r2["res_eq1"], r2["res_eq2"], r2["res_eq3"], r2["res_eq4"], rt]
        exact = max(r2["res_eq1"], r2["res_eq2"], r2["res_eq4"])
        checks.append(("bridge_eq1_eq2_eq4", exact <= 1e-8, f"max {exact:.3e}"))
        if coeffs.tags.state_free or float(np.max(np.abs(tup2.P2))) < 1e-14:
            checks.append(("bridge_eq3_zero_coupling", r2["res_eq3"] <= 1e-8,
                           f"eq3 {r2['res_eq3']:.3e}"))
            checks.append(("second_roundtrip", rt <= 1e-8, f"max deviation {rt:.3e}"))
        out = path.encode() + _floats(values) + _arrays(adj.first.P0, adj.first.G0,
                                                        adj.second.P, tup2.P2, tup2.P3)
        return Op(f"{name}/{path}", checks, out)


WORKLOADS = {w.name: w for w in (Battery, SpikeSweep, Backward)}
