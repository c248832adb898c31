import contextlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as npst

import harness_oracles
from volterra_smp import harness
from volterra_smp.coefficients import ControlPath, make_problem
from volterra_smp.harness import (ConfigError, ResultTable, _applies, read_result_table,
                                  resolve_config, run_experiment, write_results)
from volterra_smp.maxprinciple import duality_residuals
from volterra_smp.simulate import sample_brownian, simulate_sve
from volterra_smp.variation import SpikeSpec

SMALL = {
    "grid": {"n_paths": 200, "n_steps": 64},
    "kernel": {"n_nodes": 12},
    "seed": 11,
}


def test_defaults_applied():
    cfg = resolve_config(None)
    assert cfg.kernel["family"] == "fractional"
    assert cfg.grid["n_steps"] == 256
    assert cfg.solver == {"lsmc": False, "xi": 0.3, "r_subgrid": 8}
    # every default is materialized in the resolved view
    resolved = cfg.resolved()
    assert set(resolved) == {"kernel", "problem", "grid", "spike", "solver", "seed"}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown top-level key"):
        resolve_config({"nope": 1})
    with pytest.raises(ConfigError, match="kernel.flavor"):
        resolve_config({"kernel": {"flavor": "x"}})


def test_bad_enum_named():
    with pytest.raises(ConfigError, match="kernel.family"):
        resolve_config({"kernel": {"family": "powerlaw"}})
    with pytest.raises(ConfigError, match="problem.name"):
        resolve_config({"problem": {"name": "mystery"}})


def test_override_reflected_in_resolved(tmp_path):
    cfg = resolve_config({"solver": {"r_subgrid": 16}}, seed=99, n_paths=10)
    assert cfg.solver["r_subgrid"] == 16
    assert cfg.seed == 99
    assert cfg.grid["n_paths"] == 10


def test_config_file_parse_error(tmp_path):
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="parse error"):
        resolve_config(bad)


def test_csv_provenance_roundtrip(tmp_path):
    cfg = resolve_config(SMALL)
    res = run_experiment("kernels", cfg)
    paths = write_results(res, cfg, tmp_path / "out")
    csvs = [p for p in (tmp_path / "out").glob("*.csv")]
    assert csvs
    table = read_result_table(csvs[0])
    assert table.provenance["config_hash"] == cfg.hash()
    assert table.provenance["seed"] == str(cfg.seed)


def test_provenance_verification_fails_without_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="provenance"):
        read_result_table(p)


def test_run_all_deterministic_bytes(tmp_path):
    cfg = resolve_config(SMALL)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = run_experiment("all", cfg)
        write_results(res, cfg, out)
        blob = {p.name: p.read_bytes() for p in sorted(out.glob("*"))
                if p.name != "timings.json"}
        blobs.append(blob)
    assert blobs[0].keys() == blobs[1].keys()
    for name in blobs[0]:
        assert blobs[0][name] == blobs[1][name], f"{name} differs between two runs"


def test_run_all_skips_inapplicable(tmp_path):
    cfg = resolve_config({**SMALL, "problem": {"name": "bilinear_lq"}})
    res = run_experiment("all", cfg)
    assert res["mp-check"].checks[0][0] == "skipped"
    assert res["adjoint"].checks[0][0] == "skipped"
    # spike widths below 4 steps are trimmed; too few remain on this grid
    assert res["rates"].checks[0][0] == "skipped"


def test_delta_config_zero_quadrature_row(tmp_path):
    cfg = resolve_config({**SMALL, "kernel": {"family": "constant", "alpha": 0.0}})
    res = run_experiment("kernels", cfg)["kernels"]
    assert res.passed
    rel = [float(r[3]) for r in res.tables["kernels"].rows]
    assert max(rel) == 0.0


def test_cli_end_to_end(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(SMALL))
    out = tmp_path / "res"
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_smp.cli", "kernels",
         "--config", str(cfg_file), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS]" in proc.stdout
    assert (out / "summary.json").exists()
    assert (out / "resolved_config.json").exists()


def test_cli_rejects_bad_config(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"bogus": 1}))
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_smp.cli", "kernels",
         "--config", str(cfg_file), "--out", str(tmp_path / "res")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "config error" in proc.stderr


# bilinear_lq needs the regression (lsmc) solve path
REGRESSION = {"grid": {"n_paths": 64, "n_steps": 16}, "kernel": {"n_nodes": 4},
              "problem": {"name": "bilinear_lq"}, "solver": {"lsmc": True}}


def test_cli_duality_on_regression_path_fails_closed(tmp_path):
    raw = REGRESSION
    ok, why = _applies("duality", resolve_config(raw))
    assert not ok and "regression" in why
    # the skip guards a real failure: forced, the exact identity fails
    checks = harness.RUNNERS["duality"](resolve_config(raw)).checks
    assert {name: passed for name, passed, _ in checks}["first_exact"] is False
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_smp.cli", "duality",
         "--config", str(cfg_file), "--out", str(tmp_path / "res")],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "duality/" in proc.stdout


# the default kernel is the fractional lift with alpha = 1/3
TINY = {"grid": {"n_paths": 32, "n_steps": 16}, "kernel": {"n_nodes": 4}}


@pytest.mark.parametrize("experiment, raw, reason, failure", [
    ("mp-check", {"problem": {"name": "state_free_quadratic"}},
     "deterministic, control-independent", "affine path needs the simulated reference state"),
    ("mp-check", {"problem": {"name": "bilinear_lq"}, "solver": {"lsmc": True}},
     "deterministic, control-independent", "unsupported coefficient structure"),
    ("mp-check", {"grid": {"n_paths": 32, "n_steps": 12}},
     "divisible by 8", "time 0.375 is not a grid node"),
    ("adjoint", {"problem": {"name": "bilinear_lq"}},
     "solver.lsmc", "unsupported coefficient structure"),
    ("bsvie-check", {"problem": {"name": "bilinear_lq"}},
     "solver.lsmc", "unsupported coefficient structure"),
    # on 16 steps of 1/16, three of these widths span >= 4 steps
    ("rates", {"spike": {"eps_list": [0.5, 0.375, 0.25, 0.125]}},
     "fewer than 4 spike widths", "need at least 4 eps values"),
], ids=["mp_affine", "mp_regression", "mp_off_grid_interval", "adjoint_no_path",
        "bsvie_no_path", "rates_three_widths"])
def test_each_skip_guards_a_real_failure(experiment, raw, reason, failure):
    cfg = resolve_config({**TINY, **raw})
    ok, why = _applies(experiment, cfg)
    assert not ok and reason in why
    with pytest.raises(ValueError, match=failure):
        harness.RUNNERS[experiment](cfg)


@pytest.mark.parametrize("experiment, problem", [
    ("bsvie-check", "lq_linear_cost"), ("bsvie-check", "state_free_quadratic"),
    ("bsvie-check", "zero"), ("duality", "zero")])
def test_dropped_skips_pass(experiment, problem):
    # the bridge on the singular lift, and duality on the zero problem
    cfg = resolve_config({**TINY, "problem": {"name": problem}})
    res = run_experiment(experiment, cfg)[experiment]
    assert res.passed and "skipped" not in [name for name, _, _ in res.checks]


def test_bundled_configs_apply_every_experiment_but_one():
    # a skip added or dropped on a bundled config shows up here
    configs = sorted((Path(__file__).resolve().parents[1] / "scripts" / "configs").glob("*.json"))
    found = {p.stem: {exp: _applies(exp, resolve_config(p))[0] for exp in harness.RUNNERS}
             for p in configs}
    expected = {stem: dict.fromkeys(harness.RUNNERS, True)
                for stem in ("classical_sde", "fractional_lq", "statefree_quadratic")}
    expected["statefree_quadratic"]["mp-check"] = False
    assert found == expected


def _cli(tmp_path, experiment, raw):
    from volterra_smp.cli import main
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    out = tmp_path / "res"
    return main([experiment, "--config", str(cfg_file), "--out", str(out)]), out


def test_cli_single_experiment_skips_inapplicable(tmp_path, capsys):
    raw = {**SMALL, "grid": {"n_paths": 64, "n_steps": 16}, "kernel": {"n_nodes": 4},
           "problem": {"name": "bilinear_lq"}}
    code, out = _cli(tmp_path, "adjoint", raw)
    assert code == 0
    assert "[PASS] adjoint/skipped: problem needs the regression solve path" in capsys.readouterr().out
    check = json.loads((out / "summary.json").read_text())["adjoint"]["checks"][0]
    assert check["name"] == "skipped" and "solver.lsmc" in check["detail"]


@pytest.mark.parametrize("raw", [{"grid": {"T": -1}}, {"kernel": {"beta_b": 1.5}},
                                 {"grid": {"n_paths": "10"}}],
                         ids=["negative_horizon", "beta_b_out_of_range", "string_paths"])
def test_cli_invalid_value_is_config_error(tmp_path, capsys, raw):
    code, _ = _cli(tmp_path, "kernels", raw)
    assert code == 2
    assert "config error" in capsys.readouterr().err


# a drift this strong makes the first-order Picard map expand on 16 steps
NO_CONTRACTION = {**SMALL, "grid": {"n_paths": 64, "n_steps": 16}, "kernel": {"n_nodes": 4},
                  "problem": {"name": "lq_linear_cost", "params": {"b1": 5}}}


def test_cli_solver_error_is_failed_check(tmp_path, capsys):
    code, _ = _cli(tmp_path, "adjoint", NO_CONTRACTION)
    assert code == 1
    assert "[FAIL] adjoint/solver: PicardError: no contraction" in capsys.readouterr().out
    # a failed stage is not kept: each of its readers reports the failure itself
    raw = {**NO_CONTRACTION, "kernel": {"family": "constant", "alpha": 0.0}}
    code, _ = _cli(tmp_path, "all", raw)
    out, err = capsys.readouterr()
    assert code == 1
    for exp in ("adjoint", "bsvie-check"):
        assert f"[FAIL] {exp}/solver: PicardError: no contraction" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("raw, message", [
    ({"seed": "abc"}, "seed must be"), ({"seed": -1}, "seed must be"),
    ({"seed": 1.5}, "seed must be"),
    ({"spike": {"u_hat": "a"}}, "spike.u_hat must be"), ({"spike": {"v": "a"}}, "spike.v must be"),
    ({"spike": {"tau": "a"}}, "spike.tau must be"), ({"spike": {"tau": 0.99}}, "spike.tau"),
    ({"spike": {"eps_list": []}}, "spike.eps_list must be"),
    ({"solver": {"xi": [1, 2, 3]}}, "solver.xi"), ({"solver": {"xi": "a"}}, "solver.xi must be"),
    ({"solver": {"xi": [[0.1, 0.2]] * 65}},
     "solver.xi against grid.n_steps and the problem dimension: forcing table must have "
     "shape (n_steps + 1, n)"),
    # the Picard tolerance and iteration cap and the regression degree are not settable
    ({"solver": {"tol": "x"}}, "unknown key solver.tol"),
    ({"solver": {"tol": 0}}, "unknown key solver.tol"),
    ({"solver": {"max_iter": "x"}}, "unknown key solver.max_iter"),
    ({"solver": {"basis_degree": 0}}, "unknown key solver.basis_degree"),
    ({"solver": {"r_subgrid": 2}}, "solver.r_subgrid must be"),
    ({"solver": {"lsmc": "yes"}}, "solver.lsmc must be"),
    ({"grid": {"n_paths": 1, "n_steps": 16}}, "grid.n_paths must be an integer >= 2"),
], ids=["seed_string", "seed_negative", "seed_float", "u_hat_string", "v_string",
        "tau_string", "spike_past_horizon", "eps_list_empty", "xi_wrong_length",
        "xi_string", "xi_table_two_columns", "tol_string", "tol_zero", "max_iter_string", "basis_degree_zero",
        "r_subgrid_small", "lsmc_string", "one_path"])
def test_cli_bad_config_value_is_config_error(tmp_path, capsys, raw, message):
    code, _ = _cli(tmp_path, "adjoint", {**SMALL, **raw})
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", [["--alpha", "1.5"], ["--kappa-sweep", "0,1"]],
                         ids=["alpha", "kappa_sweep"])
def test_cli_has_no_bsde_check_flags(tmp_path, capsys, flag):
    from volterra_smp.cli import main
    with pytest.raises(SystemExit) as info:
        main(["bsde-check", "--out", str(tmp_path / "res"), *flag])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: volterra-smp") and "unrecognized arguments" in err
    assert "Traceback" not in err


def test_node_recursion_check_covers_the_affine_z_coefficient():
    cfg = resolve_config({**SMALL, "grid": {"n_paths": 64, "n_steps": 16},
                          "kernel": {"n_nodes": 4}, "problem": {"name": "state_free_quadratic"}})

    def node_check():
        res = harness.RUNNERS["adjoint"](cfg)
        return next((ok, d) for n, ok, d in res.checks if n == "node_recursion_residual")

    ok, detail = node_check()
    assert ok and "P1" in detail and "Q0" in detail
    adj = cfg.stage("adjoints")
    assert adj.solve_path == "affine"
    adj.first.P1[3] *= 1.0 + 1e-6   # breaks P1's recursion and Q0's link to it
    ok, detail = node_check()
    assert not ok and "P0 0.000e+00" in detail


def test_cli_bsde_check_records_its_sizes(tmp_path, capsys):
    code, out = _cli(tmp_path, "bsde-check", {**SMALL, "grid": {"n_paths": 40, "n_steps": 16}})
    stdout, err = capsys.readouterr()
    assert code in (0, 1) and "bsde-check/" in stdout
    assert "Traceback" not in stdout + err
    rec = json.loads((out / "timings.json").read_text())["bsde-check"]
    assert rec["paths"] == 40 and rec["steps"] == 16
    assert rec["closed_form_instances"] == 13
    assert rec["lsmc"] == {"later": 40, "now": [10, 40]}


# a one-atom kernel keeps the stages cheap; 256 steps keep four spike widths for rates
MEMO = {"grid": {"n_paths": 96, "n_steps": 256}, "kernel": {"family": "constant", "alpha": 0.0},
        "seed": 5}


def _counting(monkeypatch, name):
    """Replace ``harness.<name>`` by a wrapper that records each call's ensemble size."""
    calls, real = [], getattr(harness, name)

    def counting(*args, **kwargs):
        ens = kwargs.get("ens", args[4] if len(args) > 4 else None)
        calls.append(ens.n_paths if ens is not None else args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counting)
    return calls


def test_config_samples_its_ensemble_once(monkeypatch):
    brownian = _counting(monkeypatch, "sample_brownian")
    sve = _counting(monkeypatch, "simulate_sve")
    adjoints = _counting(monkeypatch, "assemble_adjoints")
    cfg = resolve_config(MEMO)
    for exp in ("simulate", "rates", "adjoint", "bsvie-check"):
        assert run_experiment(exp, cfg)[exp].passed
    # one ensemble, one reference state and one adjoint solve; simulate's
    # lift/direct check runs the direct recursion on the first 64 paths
    assert brownian == [96]
    assert sve == [96, 64] and adjoints == [96]
    ens = cfg.stage("ensemble")
    assert ens is cfg.stage("ensemble") and cfg.stage("x_hat") is cfg.stages["x_hat"]
    with pytest.raises(ValueError):
        ens.dW[0, 0] = 1.0
    with pytest.raises(ValueError):
        cfg.stage("x_hat")[0, 0, 0] = 1.0


def test_duality_builds_its_own_stages_on_the_largest_ensemble(monkeypatch, tmp_path):
    cfg = resolve_config({**MEMO, "grid": {"n_paths": 96, "n_steps": 16}})
    assert run_experiment("adjoint", cfg)["adjoint"].passed
    brownian = _counting(monkeypatch, "sample_brownian")
    sve = _counting(monkeypatch, "simulate_sve")
    adjoints = _counting(monkeypatch, "assemble_adjoints")
    results = run_experiment("duality", cfg)
    assert results["duality"].passed
    write_results(results, cfg, tmp_path)
    assert read_result_table(tmp_path / "duality.csv").provenance["config_hash"] == cfg.hash()
    # the deterministic solve reads no reference state, and the co-simulation
    # computes its own, so no state is simulated
    assert brownian == adjoints == [16000] and sve == []
    assert cfg.stage("ensemble").n_paths == 96


# one tiny config on each solve path of the adjoints
_SOLVE_PATHS = {
    "deterministic": {"problem": {"name": "lq_linear_cost"}},
    "affine": {"problem": {"name": "state_free_quadratic"}},
    "lsmc": {"problem": {"name": "bilinear_lq"}, "solver": {"lsmc": True}},
}


@pytest.mark.parametrize("path", sorted(_SOLVE_PATHS))
def test_duality_co_simulates_the_reference_state_bit_for_bit(path):
    # duality reads h_x and h_xx at the co-simulated X_hat_T, which is the
    # simulated reference state's last column, bit for bit
    cfg = resolve_config({**TINY, **_SOLVE_PATHS[path]})
    kern, coeffs, u_hat, ens, adj = (cfg.stage(name) for name in (
        "kernel", "problem", "u_hat", "ensemble", "adjoints"))
    assert adj.solve_path == path
    spike = SpikeSpec(tau=0.25, eps=0.125, v=ControlPath.constant(1.0, ens.grid, du=coeffs.du))
    xi = cfg.solver["xi"]
    bundle = duality_residuals(coeffs, spike, adj, ens, xi=xi)["bundle"]
    x_hat = simulate_sve(coeffs, u_hat, kern, xi, ens)
    assert bundle.terminal["Xhat_T"].tobytes() == x_hat[:, -1, 0].tobytes()


@pytest.mark.parametrize("path, builds", [("deterministic", False), ("affine", True)])
def test_duality_builds_the_reference_state_only_where_its_solve_reads_it(tmp_path, path,
                                                                           builds):
    cfg = resolve_config({**TINY, **_SOLVE_PATHS[path]})
    write_results(run_experiment("duality", cfg), cfg, tmp_path)
    record = json.loads((tmp_path / "timings.json").read_text())["duality"]
    assert record["stages"]["adjoints"] == "built"
    assert ("x_hat" in record["stages"]) is builds and ("x_hat_forcing" in record) is builds


def test_ensemble_memo_is_per_config_object():
    a, b = resolve_config(MEMO, seed=1), resolve_config(MEMO, seed=2)
    ea, eb = a.stage("ensemble"), b.stage("ensemble")
    assert (ea.seed, eb.seed) == (1, 2)
    assert not np.shares_memory(ea.dW, eb.dW) and not np.array_equal(ea.dW, eb.dW)
    again = resolve_config(MEMO, seed=1).stage("ensemble")
    assert again is not ea and not np.shares_memory(again.dW, ea.dW)
    assert again.dW.tobytes() == ea.dW.tobytes()
    assert a == resolve_config(MEMO, seed=1) and "stages" not in repr(a)


def test_simulate_sub_ensemble_is_a_fresh_sample(monkeypatch):
    seen = []
    real = harness.simulate_sve

    def recording(coeffs, control, kernel, xi, ens, **kw):
        seen.append(ens)
        return real(coeffs, control, kernel, xi, ens, **kw)

    monkeypatch.setattr(harness, "simulate_sve", recording)
    cfg = resolve_config(MEMO)
    harness.RUNNERS["simulate"](cfg)
    (sub,) = [e for e in seen if e.n_paths == 64]
    assert sub.dW.tobytes() == sample_brownian(cfg.make_grid(), 64, cfg.seed).dW.tobytes()


def _json_flags(node):
    if isinstance(node, dict):
        for key, val in node.items():
            if key == "passed":
                yield val
            else:
                yield from _json_flags(val)
    elif isinstance(node, list):
        for val in node:
            yield from _json_flags(val)


def test_summary_flags_are_json_booleans_and_sidecar_records_timing(tmp_path):
    cfg = resolve_config(SMALL)
    write_results(run_experiment("all", cfg), cfg, tmp_path)
    flags = list(_json_flags(json.loads((tmp_path / "summary.json").read_text())))
    assert flags and all(isinstance(f, bool) for f in flags)
    timings = json.loads((tmp_path / "timings.json").read_text())
    # the kernel and the problem are built while the config resolves
    assert timings["kernels"]["wall_s"] >= 0.0 and timings["kernels"]["stages"] == {
        "kernel": "memo"}
    assert timings["simulate"]["stages"] == {
        "kernel": "memo", "problem": "memo", "u_hat": "built", "ensemble": "built",
        "x_hat": "built"}
    assert timings["bsde-check"]["stages"] == {"ensemble": "memo"}
    # a stage's builder reads the stages it rests on; the deterministic solve
    # of the adjoints reads no reference state
    assert timings["adjoint"]["stages"] == {
        "adjoints": "built", "problem": "memo", "u_hat": "memo", "kernel": "memo",
        "ensemble": "memo"}
    assert timings["mp-check"]["stages"] == {"kernel": "memo", "problem": "memo",
                                             "ensemble": "memo"}
    # duality builds its own stages on the largest ensemble
    assert timings["duality"]["stages"] == {
        "kernel": "built", "problem": "built", "ensemble": "built", "u_hat": "built",
        "adjoints": "built"}


def test_run_all_bytes_repeat_with_fresh_configs(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        cfg = resolve_config(SMALL)            # a fresh ensemble for each run
        out = tmp_path / tag
        write_results(run_experiment("all", cfg), cfg, out)
        blobs.append({p.name: p.read_bytes() for p in sorted(out.glob("*"))
                      if p.name != "timings.json"})
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("raw,key", [
    ({"kernel": {"alpha": "x"}}, "kernel.alpha"),
    ({"kernel": {"alpha": 1.5}}, "kernel.alpha"),
    ({"kernel": {"family": "fractional", "n_nodes": 2.5}}, "kernel.n_nodes"),
    ({"kernel": {"n_nodes": 1}}, "kernel.n_nodes"),
    ({"kernel": {"n_nodes": True}}, "kernel.n_nodes"),
    ({"kernel": {"family": "exponential", "lam": "a"}}, "kernel.lam"),
    ({"kernel": {"family": "exponential", "lam": 0}}, "kernel.lam"),
    ({"kernel": {"beta_b": "x"}}, "kernel.beta_b"),
    ({"kernel": {"beta_sigma": None}}, "kernel.beta_sigma"),
    ({"kernel": {"gamma": "x"}}, "kernel.gamma"),
    ({"kernel": {"theta_min": -1.0}}, "kernel.theta_min"),
    ({"kernel": {"theta_max": [1e5]}}, "kernel.theta_max"),
    ({"kernel": {"family": 3}}, "kernel.family"),
], ids=["alpha_string", "alpha_range", "n_nodes_float", "n_nodes_one", "n_nodes_bool",
        "lam_string", "lam_zero", "beta_b_string", "beta_sigma_null", "gamma_string",
        "theta_min_negative", "theta_max_list", "family_number"])
def test_cli_bad_kernel_value_names_the_key(tmp_path, capsys, raw, key):
    code, _ = _cli(tmp_path, "kernels", {**SMALL, **raw})
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err


@pytest.mark.parametrize("params, key", [
    ({"foo": 1}, "problem.params.foo"),
    ({"b1": "x"}, "problem.params.b1"),
    ({"c1": True}, "problem.params.c1"),
    ({"ch": None}, "problem.params.ch"),
    ({"r": float("inf")}, "problem.params.r"),
    ({"u_grid": []}, "problem.params.u_grid"),
    ({"u_grid": 0.5}, "problem.params.u_grid"),
    ({"u_grid": [0.0, "a"]}, "problem.params.u_grid"),
    ({"u_grid": [0.0, float("nan")]}, "problem.params.u_grid"),
    ({"u_grid": [[0.0, 1.0]]}, "problem.params.u_grid"),
], ids=["unknown_key", "number_string", "number_bool", "number_null", "number_inf",
        "u_grid_empty", "u_grid_scalar", "u_grid_string", "u_grid_nan", "u_grid_nested"])
def test_cli_bad_problem_param_names_the_key(tmp_path, capsys, params, key):
    raw = {**SMALL, "problem": {"name": "lq_linear_cost", "params": params}}
    code, _ = _cli(tmp_path, "kernels", raw)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "Traceback" not in err


def test_problem_params_typed_from_the_builder_defaults():
    cfg = resolve_config({"problem": {"name": "bilinear_lq",
                                      "params": {"b1": 1, "u_grid": [-1, 0.5]}}})
    assert cfg.make_problem().control_domain.points.tolist() == [[-1.0], [0.5]]
    with pytest.raises(ConfigError, match="unknown key problem.params.b1"):
        resolve_config({"problem": {"name": "zero", "params": {"b1": 1.0}}})


def test_cli_memory_error_is_failed_check(tmp_path, capsys, monkeypatch):
    # a stage that cannot allocate its arrays, here the sampler made to refuse;
    # a grid beyond physical memory is refused before this, as a config error
    # (test_grid_beyond_physical_memory_is_refused_before_allocating)
    def refuse(grid, n_paths, seed):
        raise MemoryError(f"Unable to allocate array with shape ({n_paths}, {grid.n_steps})")

    monkeypatch.setattr(harness, "sample_brownian", refuse)
    code, _ = _cli(tmp_path, "adjoint", {"grid": {"n_steps": 16}})
    assert code == 1
    assert ("[FAIL] adjoint/solver: MemoryError: Unable to allocate array with shape "
            "(2000, 16)") in capsys.readouterr().out


def test_sidecar_records_solve_path_and_lift_size(tmp_path):
    raw = {"grid": {"n_paths": 64, "n_steps": 128}, "kernel": {"n_nodes": 4},
           "spike": {"eps_list": [0.25, 0.125, 0.0625, 0.03125]}, "seed": 3}
    cfg = resolve_config(raw)
    results = run_experiment("all", cfg)
    write_results(results, cfg, tmp_path)
    timings = json.loads((tmp_path / "timings.json").read_text())
    adj = timings["adjoint"]
    fields = results["adjoint"].extras["adjoint"]
    assert adj["solve_path"] == "deterministic" == fields.solve_path
    assert adj["picard_iterations"] == {"first": len(fields.first.distances),
                                        "second": len(fields.second.distances)}
    assert adj["picard_iterations"]["first"] >= 4
    assert 0.0 < adj["worst_contraction_ratio"] <= 0.9
    assert all("lsmc" not in rec for name, rec in timings.items() if name != "bsde-check")
    # blocks of 4 steps; slab 0 alone before the spikes at step 32, all 13 after.
    # Of the nodes 1e-3, 0.46, 215 and 1e5, a block of 1/32 decays the last to
    # 0 (a rescale at each of the 32 block ends) and 215 by e^{-6.7}, below
    # 2^-64 every 7th block end (4 rescales); the others never fall below it
    assert timings["rates"]["lift"] == {"paths": 64, "steps": 128, "nodes": 4, "processes": 13,
                                        "block_steps": 4, "y_updates": 32 // 4 + 96 // 4 * 13,
                                        "row_rescales": 32 + 4}
    assert timings["simulate"]["lift"] == {"block_steps": 4, "y_updates": 128 // 4,
                                           "row_rescales": 32 + 4}
    # lq_linear_cost: linear dynamics and a running cost linear in x
    assert timings["rates"]["tabulated"] == {"b": 1, "sigma": 1, "b_x": 0, "sigma_x": 0,
                                             "b_xx": 0, "sigma_xx": 0, "f": 1, "f_x": 0,
                                             "f_xx": 0}
    # simulate builds the reference state from the Taylor tables of b and
    # sigma; duality co-simulates its own, and the deterministic solve reads none
    built = {name: rec["x_hat_forcing"] for name, rec in timings.items() if "x_hat_forcing" in rec}
    assert built == {"simulate": "tables"}


@pytest.mark.parametrize("kernel, columns", [({"n_nodes": 4}, 5),
                                             ({"family": "exponential", "alpha": 0.0}, 2)],
                         ids=["fractional", "exponential"])
def test_sidecar_records_regression_ranks_where_the_solve_was_built(tmp_path, kernel, columns):
    cfg = resolve_config({**REGRESSION, "kernel": kernel})
    results = run_experiment("all", cfg)
    write_results(results, cfg, tmp_path)
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert timings["adjoint"]["solve_path"] == "lsmc"
    record = results["adjoint"].extras["adjoint"].first.regression
    assert timings["adjoint"]["lsmc"] == record
    # Y_0 = 0 leaves the constant alone; at most 1 + K columns are retained
    assert record["rank_min"] == 1 and 1 < record["rank_max"] <= columns
    assert 1.0 <= record["cond_max"] < 1e8
    assert [name for name, rec in timings.items() if "lsmc" in rec] == ["adjoint", "bsde-check"]
    assert timings["bsvie-check"]["stages"]["adjoints"] == "memo"


def test_cli_duality_records_one_lift_and_its_prefixes(tmp_path):
    # one co-simulation on the largest ensemble; the config's checks and the SE
    # sweep take prefixes of it
    raw = {"grid": {"n_paths": 64, "n_steps": 16}, "kernel": {"n_nodes": 4}, "seed": 3}
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(raw))
    proc = subprocess.run(
        [sys.executable, "-m", "volterra_smp.cli", "duality",
         "--config", str(cfg_file), "--out", str(tmp_path / "res")],
        capture_output=True, text=True)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    record = json.loads((tmp_path / "res" / "timings.json").read_text())["duality"]
    # blocks of 4 steps: slab 0 alone up to the spike at step 4 and all four
    # slabs for the 12 steps after it; a block of 1/4 decays the nodes 215 and
    # 1e5 below 2^-64 at each of the 4 block ends
    assert record["lift"] == {"paths": 16000, "steps": 16, "nodes": 4, "processes": 4,
                              "block_steps": 4, "y_updates": 1 + 3 * 4, "row_rescales": 2 * 4}
    assert record["prefixes"] == {"checks": 64, "se_sweep": [1000, 4000, 16000]}
    # lq_linear_cost has h_xx = f_xx = 0, so its pair field and generator vanish
    assert record["pair_terms"] == "none"
    assert record["tabulated"] == {"b": 1, "sigma": 1, "b_x": 0, "sigma_x": 0, "b_xx": 0,
                                   "sigma_xx": 0, "f": 1, "f_x": 0, "f_xx": 0}
    assert "x_hat" not in record["stages"] and "x_hat_forcing" not in record


def test_rates_table_fits_no_slope_to_identically_zero_quantities():
    # lq_linear_cost: the first-order remainder and the second-order terms
    # vanish, so their norms (and delta J) are roundoff, and their cells NaN
    cfg = resolve_config({"grid": {"n_paths": 64, "n_steps": 128}, "kernel": {"n_nodes": 4},
                          "spike": {"eps_list": [0.25, 0.125, 0.0625, 0.03125]}, "seed": 3})
    res = run_experiment("rates", cfg)["rates"]
    assert all(ok for _, ok, _ in res.checks)
    fitted = set()
    for quantity, _, norm, _, slope, r2 in res.tables["rates"].rows:
        if quantity in ("dX1", "X2", "dX12", "delta_j12"):
            assert norm <= 1e-10 and np.isnan(slope) and np.isnan(r2), quantity
        else:
            assert norm > 0.01 and np.isfinite(slope) and 0.9 < r2 <= 1.0, quantity
            fitted.add(quantity)
    assert fitted == {"X1", "dX"}


def test_rates_table_fits_the_superlinear_slope_of_a_nonzero_expansion_gap():
    # bilinear_lq: the cost expansion is not exact, so delta J gets a slope
    cfg = resolve_config({"grid": {"n_paths": 400, "n_steps": 128}, "kernel": {"n_nodes": 8},
                          "problem": {"name": "bilinear_lq"},
                          "spike": {"eps_list": [0.25, 0.125, 0.0625, 0.03125]}, "seed": 5})
    res = run_experiment("rates", cfg)["rates"]
    checks = {name: (ok, detail) for name, ok, detail in res.checks}
    assert checks["delta_j12_superlinear"] == (True, "slope 1.924 (se 0.133)")
    assert all(np.isfinite(row[4]) for row in res.tables["rates"].rows)


@pytest.mark.parametrize("exp", ["rates", "simulate"])
def test_mis_tagged_problem_is_a_failed_check(exp):
    # a hand-built set whose b_x reads 0.8 while b's slope is 0.5: every
    # reader of the coefficients fails closed before it builds a table
    lq = make_problem("lq_linear_cost")
    cfg = resolve_config({"grid": {"n_paths": 64, "n_steps": 128},
                          "spike": {"eps_list": [0.25, 0.125, 0.0625, 0.03125]}})
    cfg.stages["problem"] = replace(lq, b_x=make_problem("lq_linear_cost", b1=0.8).b_x)
    (line,) = run_experiment(exp, cfg)[exp].summary_lines()
    assert line.startswith(f"[FAIL] {exp}/problem: SelfTestError: derivative self-test failed "
                           "for b_x: rel err")


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_KINDS = [st.booleans(), st.booleans().map(np.bool_), st.integers(-10 ** 20, 10 ** 20),
          st.integers(-5, 5).map(np.int64), _FLOATS, _FLOATS.map(np.float64),
          st.floats(width=32).map(np.float32),
          st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, np.float64(-0.0)]),
          st.text(max_size=6)]


@st.composite
def _tables(draw):
    width, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    # each column keeps one kind of cell or mixes every kind
    kinds = [draw(st.sampled_from(_KINDS + [st.one_of(_KINDS)])) for _ in range(width)]
    cols = [draw(st.lists(kind, min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return ResultTable("t", [f"c{i}" for i in range(width)], list(zip(*cols)),
                       {"seed": 1, "version": "x"})


def _same_csv(table, folder) -> bool:
    table.to_csv(folder / "new.csv")
    harness_oracles.to_csv(table, folder / "old.csv")
    return (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(table=_tables())
def test_to_csv_matches_per_value_oracle(tmp_path_factory, table):
    assert _same_csv(table, tmp_path_factory.mktemp("csv"))


def test_to_csv_formats_every_kind_as_the_oracle(tmp_path):
    kinds = [True, np.bool_(False), 0.1, np.float64(1e300), 3, "x", float("nan"),
             float("inf"), -float("inf"), -0.0, np.float64(-0.0), np.float32(0.1),
             np.int64(-4)]
    for v in kinds:
        assert _same_csv(ResultTable("t", ["a", "b"], [(v, v), (v, 1.5)], {}), tmp_path)
    assert _same_csv(ResultTable("t", ["c"], [(v,) for v in kinds], {"seed": 1}), tmp_path)
    # more rows than one formatting block
    rows = [(p, np.float64(p / 7), p % 3 == 0) for p in range(9001)]
    assert _same_csv(ResultTable("t", ["i", "x", "b"], rows, {}), tmp_path)


_SPECIALS = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])


def _column(dtype, n_rows):
    dtype = np.dtype(dtype)
    elements = npst.from_dtype(dtype)
    if dtype.kind == "f":
        elements = st.one_of(elements, _SPECIALS)
    return npst.arrays(dtype, n_rows, elements=elements)


@st.composite
def _column_tables(draw):
    """Tables stored by column: numpy columns of the dtypes runners hand over,
    next to Python-sequence columns."""
    width, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    data = []
    for _ in range(width):
        kind = draw(st.sampled_from([np.int64, np.float64, np.float32, np.bool_, list]))
        data.append(draw(st.lists(draw(st.sampled_from(_KINDS)), min_size=n_rows,
                                  max_size=n_rows) if kind is list else _column(kind, n_rows)))
    return ResultTable("t", [f"c{i}" for i in range(width)], provenance={"seed": 2},
                       data=data)


@settings(max_examples=200, deadline=None)
@given(table=_column_tables())
def test_to_csv_of_numpy_columns_matches_per_value_oracle(tmp_path_factory, table):
    assert _same_csv(table, tmp_path_factory.mktemp("csv"))


def test_to_csv_of_numpy_columns_across_blocks(tmp_path):
    i = np.arange(9001)
    data = [i, i / 7, (i % 3 == 0), (i / 3).astype(np.float32),
            np.where(i % 5 == 0, -0.0, np.where(i % 7 == 0, np.nan, -i * 1e300))]
    table = ResultTable("t", ["i", "x", "b", "f32", "special"], provenance={}, data=data)
    assert _same_csv(table, tmp_path)
    rows_table = ResultTable("t", table.columns, table.rows, {})
    rows_table.to_csv(tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "new.csv").read_bytes()


def _nan_with_payload(dtype):
    nan = np.array([np.nan], dtype=dtype)
    return (nan.view(f"u{nan.itemsize}") | 1).view(dtype)[0]


# small pools, so that blocks repeat values: signed zeros, NaNs of two bit
# patterns and infinities next to ordinary values
_REPEAT_POOLS = {
    "f8": [0.0, -0.0, np.nan, _nan_with_payload("f8"), np.inf, -np.inf, 0.1, 1e-300, -2.5],
    "f4": [np.float32(v) for v in (0.0, -0.0, np.nan, np.inf, 0.1, -2.5)]
          + [_nan_with_payload("f4")],
    "i8": [0, -3, 7, 10 ** 15],
    "?": [True, False],
    "mixed": [True, np.bool_(False), 0.0, -0.0, float("nan"), 3, np.int64(-4), "x",
              np.float64(0.1), np.float32(0.1)],
}


@st.composite
def _repeating_tables(draw):
    width, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 40))
    data = []
    for _ in range(width):
        kind = draw(st.sampled_from(sorted(_REPEAT_POOLS)))
        pool = draw(st.lists(st.sampled_from(_REPEAT_POOLS[kind]), min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        data.append(values if kind == "mixed" else np.array(values, dtype=kind))
    return ResultTable("t", [f"c{i}" for i in range(width)], provenance={"seed": 3},
                       data=data)


def _same_as_both_oracles(table, folder) -> bool:
    harness_oracles.to_csv_by_column(table, folder / "by_column.csv")
    return (_same_csv(table, folder)
            and (folder / "new.csv").read_bytes() == (folder / "by_column.csv").read_bytes())


@settings(max_examples=200, deadline=None)
@given(table=_repeating_tables())
def test_to_csv_of_repeating_columns_matches_both_oracles(tmp_path_factory, table):
    assert _same_as_both_oracles(table, tmp_path_factory.mktemp("csv"))


def test_to_csv_indexes_repeats_across_blocks_as_the_oracles(tmp_path):
    # a states-like table: a path column, a grid column tiled per path, then
    # columns whose blocks repeat only in part, and signed zeros and NaNs
    i = np.arange(9001)
    grid = np.linspace(0.0, 1.0, 257)
    special = np.where(i % 5 == 0, -0.0, np.where(i % 7 == 0, np.nan, 0.0))
    special[i % 11 == 0] = _nan_with_payload("f8")
    data = [i // 257, np.tile(grid, 36)[:9001], special, i % 3 == 0,
            np.where(i < 4096 + 3000, i % 2 * 0.5, i / 7.0), (i % 4).astype(np.float32)]
    table = ResultTable("t", [f"c{k}" for k in range(len(data))], provenance={}, data=data)
    assert _same_as_both_oracles(table, tmp_path)


def test_to_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="every row needs 2 values"):
        ResultTable("t", ["a", "b"], [(1, 2), (3,)], {}).to_csv(tmp_path / "t.csv")


def test_output_digest_lists_every_output_but_the_timings(tmp_path):
    import hashlib
    (tmp_path / "cfg").mkdir()
    files = {"b.csv": b"1,2\n", "a.json": b"{}\n", "cfg/c.csv": b"x\n"}
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
    (tmp_path / "cfg" / "timings.json").write_text('{"wall_s": 1.0}')
    script = Path(harness.__file__).resolve().parents[2] / "scripts" / "output_digest.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{hashlib.sha256(files[n]).hexdigest()}  {n}"
                                        for n in sorted(files)]


def test_output_digest_compares_by_verdict_and_tolerance(tmp_path):
    # b: one cell 1 ulp off; c: a pass flag flipped; d: a text cell changed;
    # e: a cell of a column of roundoff moves by about 1 % of its largest
    # |value|, 2.2e-16 in all; f: a cell moves 1e-3 -> 2e-3
    script = Path(harness.__file__).resolve().parents[2] / "scripts" / "output_digest.py"
    x = 0.3
    trees = {"a": (repr(x), "a", True), "b": (repr(float(np.nextafter(x, 1.0))), "a", True),
             "c": (repr(x), "a", False), "d": (repr(x), "z", True),
             "e": (repr(x), "a", True), "f": (repr(x), "a", True)}
    roundoff = {"e": ("4.2188474935755949e-15", "1e-3"), "f": ("3.9968028886505635e-15", "2e-3")}
    for side, (cell, text, flag) in trees.items():
        (tmp_path / side).mkdir()
        (tmp_path / side / "t.csv").write_text(f"# seed=1\nname,x,y\n{text},{cell},-2.0\n")
        residual, small = roundoff.get(side, ("3.9968028886505635e-15", "1e-3"))
        (tmp_path / side / "r.csv").write_text(
            f"residual,small\n2.3536728122053319e-14,1e-3\n{residual},{small}\n")
        (tmp_path / side / "summary.json").write_text(json.dumps(
            {"rates": {"passed": flag, "checks": [{"name": "c", "passed": flag, "detail": "d"}]}}))

    def run(side, *tol):
        proc = subprocess.run([sys.executable, str(script), str(tmp_path / "a"),
                               str(tmp_path / side), *tol], capture_output=True, text=True)
        return proc.returncode, proc.stdout
    byte_code, listing = run("b")
    assert byte_code == 1 and listing.startswith("differs  t.csv\n"), listing
    assert run("b", "--tol", "1e-12") == (0, listing)
    assert run("b", "--tol", "0") == (1, listing)
    for side in ("c", "d", "f"):
        assert run(side)[0] == 1 and run(side, "--tol", "1e-12")[0] == 1, side
    assert run("b", "--tol", "x")[0] == 2
    # a column's scale is max(1, its largest |value|)
    assert run("e")[0] == 1 and run("e", "--tol", "1e-12")[0] == 0


def test_output_digest_lists_what_differs_between_two_trees(tmp_path):
    script = Path(harness.__file__).resolve().parents[2] / "scripts" / "output_digest.py"

    def run(*args):
        return subprocess.run([sys.executable, str(script), *map(str, args)],
                              capture_output=True, text=True)

    # moved.csv: the same x written with other digits, y off by 0.25 at most, a
    # NaN on both sides, a text column; grown.csv gains a row; in summary.json
    # one detail moves, one check fails, one is left as it was and one is new
    moved = "# seed=1\nname,x,y,z\na,{},1.0,nan\nb,2.0,{},1e-300\n"

    def summary(*checks):
        return json.dumps({"mp-check": {"passed": True, "checks": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in checks]}})
    for side, files in (("a", {"same.csv": "1\n", "moved.csv": moved.format("0.1", "-0.5"),
                               "grown.csv": "t\n1\n", "gone.json": "{}",
                               "summary.json": summary(("kept", True, "0"), ("moved", True, "1"),
                                                       ("flipped", True, "2")),
                               "cfg/timings.json": '{"wall_s": 1.0}'}),
                        ("b", {"same.csv": "1\n",
                               "moved.csv": moved.format("0.10000000000000001", "-0.25"),
                               "grown.csv": "t\n1\n2\n", "cfg/new.csv": "x\n",
                               "summary.json": summary(("kept", True, "0"), ("moved", True, "1.5"),
                                                       ("flipped", False, "2"), ("new", True, "3")),
                               "cfg/timings.json": '{"wall_s": 2.0}'})):
        for name, text in files.items():
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_text(text)
    proc = run(tmp_path / "a", tmp_path / "b")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "only in B  cfg/new.csv", "only in A  gone.json", "differs  grown.csv",
        "  shape 1 x 1 -> 1 x 2", "differs  moved.csv", "  x  max |dev| 0.000e+00",
        "  y  max |dev| 2.500e-01", "  z  max |dev| 0.000e+00", "differs  summary.json",
        "  mp-check/flipped  [PASS] 2 -> [FAIL] 2", "  mp-check/moved  1 -> 1.5",
        "  mp-check/new  (none) -> [PASS] 3"]
    # a tree against itself, and against a copy that differs only in its timings
    shutil.copytree(tmp_path / "a", tmp_path / "c")
    (tmp_path / "c" / "cfg" / "timings.json").write_text('{"wall_s": 4.0}')
    for other in ("a", "c"):
        proc = run(tmp_path / "a", tmp_path / other)
        assert (proc.returncode, proc.stdout) == (0, "")
    assert run(tmp_path / "a", tmp_path / "b", tmp_path / "c").returncode == 2
    assert run(tmp_path / "a", tmp_path / "missing").returncode == 2


def _dynamic_openblas() -> str | None:
    """Why OPENBLAS_CORETYPE cannot pick another BLAS core here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as exc:
        return f"numpy reports no BLAS build configuration ({exc!r})"
    config = blas.get("openblas configuration", "")
    if platform.machine().lower() not in ("x86_64", "amd64") or "DYNAMIC_ARCH" not in config:
        return (f"needs OpenBLAS built with DYNAMIC_ARCH on x86-64; numpy reports "
                f"{blas.get('name')!r} ({config or 'no configuration'}) on {platform.machine()}")
    return None


def test_outputs_keep_verdicts_and_tolerance_on_another_blas_core(tmp_path):
    # the bundled fractional config at 64 paths and 32 steps, once on the
    # BLAS core OpenBLAS picks and once on Prescott (SSE3, on any x86-64)
    reason = _dynamic_openblas()
    if reason is not None:
        pytest.skip(reason)
    root = Path(harness.__file__).resolve().parents[2]
    summaries = []
    for side, extra in (("native", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        proc = subprocess.run(
            [sys.executable, "-m", "volterra_smp.cli", "all",
             "--config", str(root / "scripts" / "configs" / "fractional_lq.json"),
             "--paths", "64", "--steps", "32", "--out", str(tmp_path / side)],
            env={**os.environ, **extra}, capture_output=True, text=True)
        assert proc.returncode in (0, 1), proc.stderr
        summaries.append({(exp, check["name"]): check["passed"]
                          for exp, res in json.loads((tmp_path / side / "summary.json")
                                                     .read_text()).items()
                          for check in res["checks"]})
    assert summaries[0] == summaries[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "output_digest.py"),
                           str(tmp_path / "native"), str(tmp_path / "prescott"),
                           "--tol", "1e-12"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sidecar_records_table_write_time(tmp_path):
    cfg = resolve_config({"grid": {"n_paths": 32, "n_steps": 32}, "kernel": {"n_nodes": 4}})
    results = run_experiment("all", cfg)
    write_results(results, cfg, tmp_path)
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert set(timings) == {name for name, res in results.items() if "timing" in res.extras}
    assert all(isinstance(r["write_s"], float) and r["write_s"] >= 0.0 for r in timings.values())
    assert timings["simulate"]["write_s"] > 0.0       # it writes the states table
    assert "write_s" not in results["simulate"].extras["timing"]


def test_mp_check_simulates_no_state_where_the_gap_reads_none(tmp_path):
    # a small classical_sde: lq_linear_cost's slopes in x do not move with the
    # control, so its gap is free of x and mp-check needs no state
    cfg = resolve_config({"kernel": {"family": "constant", "alpha": 0.0},
                          "grid": {"n_paths": 32, "n_steps": 16}})
    results = run_experiment("mp-check", cfg)
    write_results(results, cfg, tmp_path)
    assert results["mp-check"].passed
    assert all(row[3] == 0.0 for row in results["mp-check"].tables["mp"].rows)
    timing = json.loads((tmp_path / "timings.json").read_text())["mp-check"]
    assert timing["gap"] == {"state_degree": 0, "per_path": False, "states_simulated": 0}
    assert "lift" not in timing       # the lift tally made no updates


@pytest.mark.parametrize("text, name", [
    ("null", "the config"), ("3", "the config"), ('"abc"', "the config"),
    ('{"kernel": 3}', "kernel"), ('{"kernel": null}', "kernel"),
    ('{"problem": {"name": ["x"]}}', "problem.name"), ('{"grid": {"T": true}}', "grid.T"),
    ('{"grid": {"T": 1e400}}', "grid.T"), ('{"grid": {"T": "x"}}', "grid.T"),
], ids=["null", "number", "string", "kernel_number", "kernel_null", "problem_name_list",
        "horizon_bool", "horizon_overflow", "horizon_string"])
def test_cli_malformed_config_fails_closed(tmp_path, capsys, text, name):
    from volterra_smp.cli import main
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(text)
    assert main(["kernels", "--config", str(cfg_file), "--out", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {name} must be" in err and "Traceback" not in err


@pytest.mark.parametrize("override, name", [
    ({"n_paths": 3.7}, "grid.n_paths"), ({"n_steps": True}, "grid.n_steps"),
    ({"seed": "7"}, "seed"), ({"n_paths": 0}, "grid.n_paths"), ({"n_paths": 1}, "grid.n_paths")])
def test_overrides_obey_the_schema_rules(override, name):
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        resolve_config(None, **override)


def test_defaults_are_the_schema_defaults():
    def leaves(node, path=""):
        for key, val in node.items():
            if isinstance(val, dict) and path + key != "problem.params":
                yield from leaves(val, f"{path}{key}.")
            else:
                yield path + key, val

    assert dict(leaves(harness.DEFAULTS)) == {path: entry[0]
                                              for path, entry in leaves(harness.SCHEMA)}
    assert resolve_config(None).resolved() == harness.DEFAULTS


_SCHEMA_PATHS = [f"{block}.{key}" for block, keys in harness.SCHEMA.items()
                 if isinstance(keys, dict) for key in keys] + list(harness.SCHEMA)


def _json_values(ints=st.integers(-10 ** 20, 10 ** 20)):
    scalars = st.one_of(
        st.none(), st.booleans(), ints, st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([5e-324, 1e-300, 0.5 + 2 ** -52, 1 - 2 ** -53, 1e300, 1.7e308]),
        st.sampled_from(["fractional", "constant", "exponential", "full", "zero", "bilinear_lq"]),
        st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=2)),
        max_leaves=6)


_ANY_VALUE = _json_values()
_VALUES = {"kernel.n_nodes": _json_values(st.integers(-2, 40)),
           "grid.n_steps": _json_values(st.integers(-2, 300)),
           "grid.n_paths": _json_values(st.integers(-2, 3000))}


@st.composite
def _mutated_configs(draw):
    paths = draw(st.lists(st.sampled_from(_SCHEMA_PATHS), min_size=1, max_size=3, unique=True))
    raw = json.loads(json.dumps(harness.DEFAULTS))
    for path in sorted(paths, key=lambda p: -p.count(".")):   # a whole block goes last
        block, _, key = path.rpartition(".")
        (raw[block] if block else raw)[key] = draw(_VALUES.get(path, _ANY_VALUE))
    return raw, paths


@settings(max_examples=400, deadline=None)
@given(case=_mutated_configs())
def test_mutated_config_resolves_or_names_the_key(case):
    """Random ``SCHEMA`` keys set to JSON-like values (null, bools, ints, +-inf and
    nan, strings, lists, objects) either resolve or raise ``ConfigError`` naming a
    mutated key: ``block.key``, or the bare key when the block's builder refuses a
    combination of keys.

    ``kernel.n_nodes``, ``grid.n_steps`` and ``grid.n_paths`` are drawn from small
    ranges only: resolving builds the kernel, so a 10**8-node draw would build
    10**8 atoms in a Python loop.  A node count that numpy refuses to allocate
    is tested in ``test_unallocatable_node_count_is_a_config_error``."""
    raw, paths = case
    try:
        resolve_config(raw)
    except ConfigError as exc:
        msg = str(exc)
        assert any(p in msg or (msg.startswith(p.split(".")[0] + ":") and p.split(".")[-1] in msg)
                   for p in paths), (msg, paths)


@pytest.mark.parametrize("raw, keys", [
    ({"kernel": {"beta_b": 1.5}}, ("kernel:", "beta_b")),
    ({"kernel": {"theta_max": 1.7e308}}, ("kernel:", "theta_max")),
    ({"kernel": {"theta_min": 1e6}}, ("kernel:", "theta_min")),
    ({"grid": {"T": 0.1}}, ("spike.tau", "grid.T")),
    ({"grid": {"T": 5e-324}}, ("spike.tau", "grid.T")),
    ({"solver": {"xi": [0.1, 0.2]}}, ("solver.xi",)),
    ({"kernel": {"theta_min": 1.0, "theta_max": 1.0000000000000002}},
     ("kernel:", "theta_min", "theta_max")),
    ({"kernel": {"gamma": 0.9999999999999999, "alpha": 0.9999999999999999}},
     ("kernel:", "gamma")),
], ids=["beta_b_range", "theta_overflow", "theta_order", "spike_past_horizon",
        "horizon_underflow", "xi_shape", "theta_range_too_narrow", "gamma_cell_masses"])
def test_builder_refusal_names_its_keys(raw, keys):
    with pytest.raises(ConfigError) as info:
        resolve_config(raw)
    assert all(key in str(info.value) for key in keys), str(info.value)


def test_readme_config_example_resolves():
    readme = (Path(harness.__file__).resolve().parents[2] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    assert resolve_config(example).resolved() == {**example, "kernel": {
        **example["kernel"], "lam": harness.DEFAULTS["kernel"]["lam"]}}


def test_out_csv_file_writes_primary_and_secondary_tables(tmp_path):
    cfg = resolve_config(SMALL)
    results = run_experiment("kernels", cfg)
    written = write_results(results, cfg, tmp_path / "file" / "kernels.csv")
    write_results(results, cfg, tmp_path / "dir")
    assert written == [tmp_path / "file" / "kernels.csv", tmp_path / "file" / "kernels_knorms.csv"]
    assert sorted(p.name for p in (tmp_path / "file").iterdir()) == [
        "kernels.csv", "kernels.resolved.json", "kernels_knorms.csv"]
    assert ((tmp_path / "file" / "kernels.csv").read_bytes()
            == (tmp_path / "dir" / "kernels.csv").read_bytes())
    assert json.loads((tmp_path / "file" / "kernels.resolved.json").read_text()) == json.loads(
        (tmp_path / "dir" / "resolved_config.json").read_text())


def test_unallocatable_node_count_is_a_config_error(tmp_path, capsys):
    # 10**13 nodes: the size check refuses the lift slab before the kernel
    # builder allocates its first node table.
    code, _ = _cli(tmp_path, "kernels", {"kernel": {"n_nodes": 10 ** 13}})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: kernel:") and "Traceback" not in err, err


@pytest.mark.parametrize("raw, keys", [
    ({"grid": {"n_paths": 10 ** 9, "n_steps": 10 ** 9}}, ("grid:", "grid.n_paths", "grid.n_steps")),
    ({"grid": {"n_steps": 10 ** 9}, "kernel": {"family": "constant"}},
     ("grid:", "grid.n_paths", "grid.n_steps")),
    ({"kernel": {"n_nodes": 10 ** 9}}, ("kernel:", "kernel.n_nodes", "grid.n_paths")),
    ({"kernel": {"n_nodes": 10 ** 8}, "grid": {"n_paths": 10 ** 4, "n_steps": 16}},
     ("kernel:", "kernel.n_nodes", "max(grid.n_paths, 16000) = 16000")),
    # the increment table and the lift slab (16000 x 10^4 doubles each, 1.2 GiB)
    # fit; one pair-field table of (10^4 + 1) x 10^8 doubles (7.3 TiB) does not
    ({"kernel": {"n_nodes": 10 ** 4}, "grid": {"n_steps": 10 ** 4}},
     ("kernel:", "kernel.n_nodes", "grid.n_steps", "pair-field")),
], ids=["paths_and_steps", "steps", "nodes", "nodes_at_duality_paths", "pair_field_nodes"])
def test_grid_beyond_physical_memory_is_refused_before_allocating(raw, keys):
    """A grid whose increment table or lift slab, at duality's path count, or
    whose pair-field table needs more than physical memory is a config error
    naming its keys, raised before any table is allocated (these sizes would
    run for minutes or fail to allocate)."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError) as info:
            resolve_config(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    msg = str(info.value)
    assert all(key in msg for key in keys) and "physical memory" in msg, msg
    assert peak < 2 ** 20, peak


def test_cli_refuses_an_oversized_path_override(tmp_path, capsys):
    from volterra_smp.cli import main
    code = main(["kernels", "--paths", str(10 ** 12), "--out", str(tmp_path / "res")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: grid:") and "Traceback" not in err, err


@pytest.mark.parametrize("under", [False, True], ids=["a_file", "under_a_file"])
def test_an_out_that_cannot_be_a_directory_is_a_config_error(tmp_path, capsys, under):
    # refused before any experiment runs, by the CLI and by run_all.py
    from volterra_smp.cli import main
    blocker = tmp_path / "README.md"
    blocker.write_text("text\n")
    out = blocker / "x" if under else blocker
    code = main(["kernels", "--out", str(out), "--paths", "8", "--steps", "8"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: --out {out}: ") and "Traceback" not in err, err
    script = Path(harness.__file__).resolve().parents[2] / "scripts" / "run_all.py"
    proc = subprocess.run([sys.executable, str(script), "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == "", proc.stdout
    assert proc.stderr.startswith(f"config error: --out {out}") and "Traceback" not in proc.stderr
    assert not list(tmp_path.rglob("summary.json"))


_FINITE = st.floats(-3.0, 3.0)


@st.composite
def _tiny_configs(draw):
    """A valid config at tiny sizes: <= 32 steps, 2 to 64 paths, <= 6 nodes.
    Cross-key constraints (the beta and gamma ranges, the spike window) mostly
    hold, so most draws reach the experiment.  Most draws sweep 4 to 6
    distinct spike widths k T / n_steps, 4 <= k <= n_steps / 2, so that the
    rate sweep runs; the others draw widths it may skip."""
    T = draw(st.floats(0.25, 2.0))
    n_steps = draw(st.one_of(st.integers(2, 32), st.sampled_from([16, 32])))
    eps_list = st.lists(st.floats(T / 64, 0.5 * T), min_size=1, max_size=5)
    if n_steps >= 14 and draw(st.sampled_from([True, True, True, False])):
        eps_list = st.lists(st.integers(4, n_steps // 2), min_size=4, max_size=6,
                            unique=True).map(lambda ks: [k * T / n_steps for k in ks])
    name = draw(st.sampled_from(sorted(harness.PROBLEMS)))
    params = draw(st.fixed_dictionaries({}, optional={
        key: st.lists(_FINITE, min_size=1, max_size=4) if isinstance(default, tuple) else _FINITE
        for key, (default, _) in harness._PARAMS[name].items()}))
    xi = draw(st.one_of(_FINITE, st.lists(_FINITE, min_size=n_steps + 1, max_size=n_steps + 1),
                        st.lists(st.lists(_FINITE, min_size=1, max_size=1),
                                 min_size=n_steps + 1, max_size=n_steps + 1)))
    family = draw(st.sampled_from(["fractional", "constant", "exponential"]))
    # a fractional lift needs an admissible gamma: beta_b > (1 - alpha) / 2 and
    # beta_sigma > 1 - alpha / 2, which alpha = 0 rules out
    alpha = draw(st.floats(0.2, 0.9) if family == "fractional"
                 else st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    return {
        "kernel": {"family": family, "alpha": alpha,
                   "beta_b": draw(st.floats((1.0 - alpha) / 2 + 0.01, 0.99)),
                   "beta_sigma": draw(st.floats(min(0.98, 1.01 - alpha / 2), 0.99)),
                   "theta_min": draw(st.floats(1e-3, 1.0)),
                   "theta_max": draw(st.floats(2.0, 1e4)),
                   "n_nodes": draw(st.integers(2, 6)),
                   "lam": draw(st.floats(0.1, 5.0))},
        "problem": {"name": name, "params": params},
        "grid": {"T": T, "n_steps": n_steps, "n_paths": draw(st.integers(2, 64))},
        "spike": {"tau": draw(st.floats(0.0, 0.5 * T)), "eps_list": draw(eps_list),
                  "u_hat": draw(_FINITE), "v": draw(_FINITE)},
        "solver": {"lsmc": draw(st.booleans()), "xi": xi,
                   "r_subgrid": draw(st.one_of(st.just("full"), st.integers(4, 40)))},
        "seed": draw(st.integers(0, 2 ** 32)),
    }


# four spike widths of 4 to 8 steps of 1/16: the rate sweep runs
_RATES_EXAMPLE = {
    "kernel": {"family": "fractional", "alpha": 0.5, "beta_b": 0.8, "beta_sigma": 0.9,
               "theta_min": 0.01, "theta_max": 100.0, "n_nodes": 4, "lam": 1.0},
    "problem": {"name": "bilinear_lq", "params": {}},
    "grid": {"T": 1.0, "n_steps": 16, "n_paths": 32},
    "spike": {"tau": 0.25, "eps_list": [0.5, 0.375, 0.3125, 0.25], "u_hat": 0.1, "v": 1.0},
    "solver": {"lsmc": False, "xi": 0.3, "r_subgrid": 8},
    "seed": 3,
}


def test_rates_example_reaches_the_rate_sweep():
    assert _applies("rates", resolve_config(_RATES_EXAMPLE)) == (True, "")


@pytest.mark.parametrize("experiment", [e for e in harness.EXPERIMENTS if e != "all"])
@settings(max_examples=7, deadline=None)
@given(config=_tiny_configs())
@example(config=_RATES_EXAMPLE)
def test_cli_ends_in_a_verdict_on_tiny_valid_configs(experiment, config):
    """Every kernel family and problem, ``solver.lsmc`` on and off and
    ``solver.xi`` a scalar or a table: each experiment through the CLI exits 0,
    1 or 2, exit 2 is a config error, and nothing ends as a traceback.
    ``duality`` always runs a 16000-path ensemble, at most 32 steps here."""
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        code, _ = _cli(Path(tmp), experiment, config)
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("config error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("experiment, raw, expected", [
    ("mp-check", {"grid": {"n_paths": 32, "n_steps": 12}},
     [("skipped", True, "divisible by 8")]),
    ("mp-check", {"problem": {"name": "zero"}},
     [("perturbation_fails_on_interval", False, "none is left to perturb it with")]),
    ("duality", {"problem": {"name": "lq_linear_cost", "params": {"s0": 0.0, "s1": 0.0}}},
     [("se_shrinks_sqrt_paths", True, "display SE 0.000e+00, 0.000e+00, 0.000e+00"),
      ("first_display_3se", True, "se 0 (no noise): |mean| / scale"),
      ("second_display_3se", True, "against the exact bound 1e-8")]),
    ("kernels", {"kernel": {"n_nodes": 64}},
     [("quadrature_error_decreases", True, "1.416e-04 -> ")]),
    ("kernels", {"kernel": {"theta_min": 1.0, "theta_max": 1.0000000000000004, "n_nodes": 2}},
     [("quadrature_error_decreases", True, "at 2x nodes")]),
    ("kernels", {"kernel": {"theta_min": 1e306, "theta_max": 1e307, "n_nodes": 2}},
     [("quadrature_error_decreases", False, "no 2x-node reference: constraint violated: the "
       "range theta_min=1e+305 to theta_max=1e+308 overflows on 4 nodes")]),
    ("simulate", {"kernel": {"n_nodes": 8}, "solver": {"xi": 1e6}},
     [("lift_direct_identity", True, "max deviation ")]),
    ("adjoint", {"kernel": {"n_nodes": 8},
                 "problem": {"name": "lq_linear_cost", "params": {"ch": 1e6}}},
     [("node_recursion_residual", True, "max ")]),
], ids=["mp_off_grid_interval", "mp_one_control_value", "duality_noise_free_display",
        "kernels_64_nodes", "kernels_narrow_range", "kernels_reference_overflows",
        "simulate_state_near_1e6", "adjoint_field_near_1e6"])
def test_degenerate_configs_end_in_a_named_check(experiment, raw, expected):
    """Inputs that once ended as a traceback or as a failure with no reason: an
    mp-check interval [T/4, 3T/8] off the grid nodes (a traceback), a one-point
    control domain with nothing to perturb with (violations on [nan, nan]), and
    a duality display residual without noise, whose SEs admit no log-log fit
    (a traceback) and whose roundoff mean failed the 3-SE test at SE 0.

    And inputs on which a check failed correct code: the 2x-node kernel
    reference on the config's own theta range hit that range's error floor
    from 64 nodes on, could not be built on a range that holds 2 nodes but not
    4 (a traceback), and, on the widened range, overflows (a failed check
    naming the builder's refusal).  The lift-direct identity and the node
    recursion, exact up to rounding, were held to 1e-10 absolute and failed
    on states and fields near 1e6, where the rounding alone is about 1e-10.
    None of them lets a RuntimeWarning escape: the overflowing range once
    leaked one from the kernel builder on its way to the refusal."""
    cfg = resolve_config({"grid": {"n_paths": 32, "n_steps": 16},
                          "kernel": {"family": "constant", "alpha": 0.0}, **raw})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_experiment(experiment, cfg)[experiment]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    found = {name: (ok, text) for name, ok, text in res.checks}
    for check, passed, detail in expected:
        assert found[check][0] is passed and detail in found[check][1], found


def test_noisy_display_residual_keeps_the_3se_test():
    """Where the display SE is nonzero the check is |mean| <= 3 SE, as before."""
    cfg = resolve_config({"grid": {"n_paths": 32, "n_steps": 16},
                          "kernel": {"family": "constant", "alpha": 0.0}})
    res = run_experiment("duality", cfg)["duality"]
    rows = {(r[0], r[1]): r for r in res.tables["duality"].rows}
    mean, se = rows[("first", "display")][2:]
    found = {name: (ok, text) for name, ok, text in res.checks}
    assert se > 0 and found["first_display_3se"] == (abs(mean) <= 3 * se,
                                                     f"mean {mean:.3e}, se {se:.3e}")
