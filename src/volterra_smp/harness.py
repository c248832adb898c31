"""Experiment configuration, registry, and deterministic result emission.

One JSON config drives every experiment; ``SCHEMA`` gives each key its default
and the rule its value must obey.  Every default is materialized into the
resolved config written next to the results, and each CSV carries a provenance
header (config hash, seed, package version), so outputs reproduce byte for byte.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import numbers
import os
import time
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import (BSDEInstance, apriori_ratio, lsmc_relative_error,
                   martingale_check, solve_bsde_closedform)
from .bsee import PicardError, assemble_adjoints, assemble_first_adjoint, choose_solve_path
from .bsvie import (bsee_to_bsvie_first, bsee_to_bsvie_second, bsvie_residual_first,
                    bsvie_residual_second, m_constraint_residual_first,
                    reconstruct_first_field, reconstruct_second_field)
from .coefficients import PROBLEMS, ControlPath, SelfTestError, make_problem, table_degrees
from .grids import TimeGrid
from .kernels import (build_fractional_lift, constant_kernel, exponential_kernel,
                      knorm_eps, quadrature_error, sweep_factors)
from .maxprinciple import (check_variational_inequality, classical_adjoint_gaps,
                           construct_argmax_control, duality_residuals, duality_stats,
                           gap_tables, perturb_control)
from .simulate import (BrownianEnsemble, cnorm, lift_tally, sample_brownian, simulate_sve,
                       xi_table)
from .stats import fit_loglog
from .variation import SpikeSpec, remainder_rates


_Rule = namedtuple("_Rule", "what ok")    # what a value must be, and the test it must pass


def _finite(val) -> bool:
    """A finite number; a bool is not one here."""
    if isinstance(val, (bool, np.bool_)) or not isinstance(val, numbers.Real):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:      # an int beyond the float range
        return False


def _reals(val) -> bool:
    """A finite number or a (nested) list of them."""
    return all(map(_reals, val)) if isinstance(val, (list, tuple)) else _finite(val)


def _integer(low: int, high: int | None = None) -> _Rule:
    return _Rule(f"an integer >= {low}" if high is None else f"an integer in [{low}, {high})",
                 lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))
                 and v >= low and (high is None or v < high))


def _one_of(*choices) -> _Rule:
    return _Rule(f"one of {', '.join(map(repr, choices))}",
                 lambda v: isinstance(v, str) and v in choices)


def _list_of(what: str, rule: _Rule) -> _Rule:
    return _Rule(f"a non-empty list of {what}",
                 lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(rule.ok, v)))


_REAL = _Rule("a finite number", _finite)
_POSITIVE = _Rule("a positive number", lambda v: _finite(v) and v > 0)

# Every config key as (default, rule); a nested dict is a block of keys.  The
# builders keep the constraints between keys (the beta ranges of a kernel family,
# the spike window inside [0, T], the shape of a solver.xi table).
SCHEMA = {
    "kernel": {
        "family": ("fractional", _one_of("fractional", "constant", "exponential")),
        "beta_b": (0.8, _REAL),
        "beta_sigma": (0.9, _REAL),
        # None -> midpoint of the admissible interval
        "gamma": (None, _Rule("null or a finite number", lambda v: v is None or _finite(v))),
        "alpha": (1.0 / 3.0, _Rule("a number in [0, 1)", lambda v: _finite(v) and 0 <= v < 1)),
        "theta_min": (1e-3, _POSITIVE),
        "theta_max": (1e5, _POSITIVE),
        "n_nodes": (32, _integer(2)),
        "lam": (2.0, _POSITIVE),             # exponential family only
    },
    "problem": {
        "name": ("lq_linear_cost", _one_of(*PROBLEMS)),
        "params": ({}, _Rule("an object", lambda v: isinstance(v, dict))),   # see _PARAMS
    },
    "grid": {
        "T": (1.0, _POSITIVE),
        "n_steps": (256, _integer(2)),
        "n_paths": (2000, _integer(2)),      # one path has no standard error
    },
    "spike": {
        "tau": (0.25, _REAL),
        "eps_list": ([0.125, 0.0625, 0.03125, 0.015625, 0.0078125],
                     _list_of("positive numbers", _POSITIVE)),
        "u_hat": (0.1, _REAL),
        "v": (1.0, _REAL),
    },
    "solver": {
        "lsmc": (False, _Rule("true or false", lambda v: isinstance(v, bool))),
        "xi": (0.3, _Rule("a finite number or a list of them", _reals)),
        "r_subgrid": (8, _Rule('"full" or an integer >= 4',
                               lambda v: v == "full" or _integer(4).ok(v))),
    },
    # seed + 1 seeds a second ensemble, and Philox keys are unsigned
    "seed": (20260801, _integer(0, 2 ** 63)),
}

DEFAULTS = {name: {key: entry[0] for key, entry in block.items()}
            if isinstance(block, dict) else block[0] for name, block in SCHEMA.items()}

# problem.params per problem: each key typed like the builder's default for it
_PARAMS = {name: {par.name: (par.default, _list_of("finite numbers", _REAL)
                             if isinstance(par.default, tuple) else _REAL)
                  for par in inspect.signature(build).parameters.values()}
           for name, build in PROBLEMS.items()}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    kernel: dict
    problem: dict
    grid: dict
    spike: dict
    solver: dict
    seed: int
    # the built stages by name, see ``stage``
    stages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def resolved(self) -> dict:
        return {"kernel": self.kernel, "problem": self.problem, "grid": self.grid,
                "spike": self.spike, "solver": self.solver, "seed": self.seed}

    def hash(self) -> str:
        blob = json.dumps(self.resolved(), sort_keys=True, default=float)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def make_kernel(self):
        k = self.kernel
        if k["family"] == "fractional":
            return build_fractional_lift(k["beta_b"], k["beta_sigma"], k["gamma"],
                                         k["theta_min"], k["theta_max"], k["n_nodes"],
                                         alpha=k["alpha"])
        if k["family"] == "constant":
            return constant_kernel(alpha=k["alpha"])
        return exponential_kernel(k["lam"], alpha=k["alpha"])

    def make_problem(self):
        return make_problem(self.problem["name"], **self.problem["params"])

    def make_grid(self) -> TimeGrid:
        return TimeGrid(self.grid["T"], self.grid["n_steps"])

    def stage(self, name: str):
        """The named stage of ``STAGES``, built on first use and kept on this
        config object.  A stage that raises is not kept: the next reader
        builds it again and meets the error itself."""
        built = name not in self.stages
        if built:
            self.stages[name] = STAGES[name](self)
        log = _STAGE_LOG.get()
        if log is not None:
            log.setdefault(name, "built" if built else "memo")
        return self.stages[name]


# every Picard solve of the experiments stops below this distance
PICARD_TOL = 1e-13


def _ensemble(config: ExperimentConfig) -> BrownianEnsemble:
    ens = sample_brownian(config.make_grid(), config.grid["n_paths"], config.seed)
    ens.dW.flags.writeable = False
    return ens


def _x_hat(config: ExperimentConfig) -> np.ndarray:
    X = simulate_sve(config.stage("problem"), config.stage("u_hat"), config.stage("kernel"),
                     config.solver["xi"], config.stage("ensemble"))
    X.flags.writeable = False
    return X


def _adjoints(config: ExperimentConfig):
    coeffs, u_hat, lsmc = config.stage("problem"), config.stage("u_hat"), config.solver["lsmc"]
    # the deterministic solve reads no state
    reads_state = choose_solve_path(coeffs.tags, lsmc, u_hat.deterministic) in ("affine", "lsmc")
    return assemble_adjoints(coeffs, u_hat, config.stage("x_hat") if reads_state else None,
                             config.stage("kernel"), config.stage("ensemble"),
                             tol=PICARD_TOL, lsmc=lsmc)


# The stages of a config, each built from the config and the stages it reads:
# the kernel and the problem, the Brownian ensemble (read-only increments), the
# reference control u_hat, the state X_hat along it (read-only; only the affine
# and regression solves of the adjoints read it) and the first- and second-order
# adjoints at it.
STAGES = {
    "kernel": ExperimentConfig.make_kernel,
    "problem": ExperimentConfig.make_problem,
    "ensemble": _ensemble,
    "u_hat": lambda config: ControlPath.constant(config.spike["u_hat"], config.make_grid(),
                                                 du=config.stage("problem").du),
    "x_hat": _x_hat,
    "adjoints": _adjoints,
}

_STAGE_LOG: ContextVar[dict | None] = ContextVar("stage_log", default=None)


@contextmanager
def _stage_log():
    """Collects stage name -> "built" or "memo" for the stages read in the block."""
    log = {}
    token = _STAGE_LOG.set(log)
    try:
        yield log
    finally:
        _STAGE_LOG.reset(token)


def _check(name: str, rule: _Rule, val):
    if not rule.ok(val):
        raise ConfigError(f"{name} must be {rule.what}, got {val!r}")
    return val


def _resolve(schema: dict, given, name: str = "") -> dict:
    """``given`` checked against ``schema``: an object holding only the
    schema's keys, each obeying its rule; an absent key takes its default."""
    if not isinstance(given, dict):
        raise ConfigError(f"{name or 'the config'} must be an object, got {given!r}")
    for key in given:
        if key not in schema:
            raise ConfigError(f"unknown key {name}.{key}" if name
                              else f"unknown top-level key {key!r}")
    out = {}
    for key, entry in schema.items():
        path = f"{name}.{key}" if name else key
        if isinstance(entry, dict):
            out[key] = _resolve(entry, given.get(key, {}), path)
        else:
            out[key] = _check(path, entry[1], given.get(key, entry[0]))
    return out


def _build(keys: str, build, *args):
    """``build(*args)``; a builder's refusal is a config error naming ``keys``."""
    try:
        return build(*args)
    except (ValueError, TypeError, ArithmeticError, MemoryError) as exc:
        raise ConfigError(f"{keys}: {exc}") from exc


# duality's display SE at these path counts must shrink as 1/sqrt(paths), so it
# runs every config on at least the largest of them
DUALITY_PATH_SWEEP = (1000, 4000, 16000)


def _check_sizes(cfg: dict) -> None:
    """Refuse, before anything is allocated, a grid whose Brownian increment
    table (paths x steps) or lift slab (nodes x paths) of doubles would not
    fit in physical memory, at the path count ``duality`` runs, or whose one
    pair-field table of the second-order adjoint ((steps + 1) x nodes^2)
    would not."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):   # no sysconf here: nothing to compare with
        return
    paths = max(cfg["grid"]["n_paths"], *DUALITY_PATH_SWEEP)
    at_paths = f"max(grid.n_paths, {max(DUALITY_PATH_SWEEP)}) = {paths}"
    nodes = cfg["kernel"]["n_nodes"] if cfg["kernel"]["family"] == "fractional" else 1
    steps = cfg["grid"]["n_steps"]
    for block, table, cells in (
            ("grid", f"increment table of {at_paths} x grid.n_steps = {steps}", paths * steps),
            ("kernel", f"lift slab of kernel.n_nodes = {nodes} x {at_paths}", nodes * paths),
            ("kernel", f"pair-field table of (grid.n_steps + 1) = {steps + 1} x "
                       f"kernel.n_nodes^2 = {nodes}^2", (steps + 1) * nodes * nodes)):
        if 8 * cells > memory:
            raise ConfigError(f"{block}: the {table} doubles needs {8 * cells / 2 ** 30:.3g} GiB, "
                              f"more than the {memory / 2 ** 30:.3g} GiB of physical memory")


def resolve_config(source=None, seed=None, n_paths=None, n_steps=None) -> ExperimentConfig:
    """Check ``source`` against ``SCHEMA`` and fill in the defaults.

    ``source`` may be a path to a JSON file, a dict, or None (defaults).
    ``seed``, ``n_paths`` and ``n_steps`` override the config's values and obey
    the same rules.  Every invalid input raises ``ConfigError``.
    """
    raw = {} if source is None else source
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read the config: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config parse error in {source}: {exc}") from exc
    cfg = _resolve(SCHEMA, raw)
    if seed is not None:
        cfg["seed"] = _check("seed", SCHEMA["seed"][1], seed)
    for key, val in (("n_paths", n_paths), ("n_steps", n_steps)):
        if val is not None:
            cfg["grid"][key] = _check(f"grid.{key}", SCHEMA["grid"][key][1], val)
    # every problem.params key obeys its rule; the config keeps only the keys given
    _resolve(_PARAMS[cfg["problem"]["name"]], cfg["problem"]["params"], "problem.params")
    _check_sizes(cfg)
    config = ExperimentConfig(**{**cfg, "seed": int(cfg["seed"])})
    grid = config.make_grid()          # the rules hold T > 0 and n_steps >= 2
    _build("kernel", config.stage, "kernel")
    coeffs = _build("problem.params", config.stage, "problem")
    spike, xi = config.spike, config.solver["xi"]
    if isinstance(xi, (list, tuple)):  # a scalar fits every problem; build no table for it
        _build("solver.xi against grid.n_steps and the problem dimension",
               xi_table, xi, grid, coeffs.dim)
    for eps in spike["eps_list"]:
        _build("spike.tau and spike.eps_list against grid.T",
               SpikeSpec(tau=spike["tau"], eps=eps, v=None).window, grid)
    return config


class ResultTable:
    """A result table, stored by column.

    ``data[i]`` holds column i: a numpy array, or a Python sequence for a
    column built value by value.  Tables are built from ``rows`` or, where the
    values already sit in arrays, from ``data``.
    """

    def __init__(self, name: str, columns, rows=(), provenance=None, *, data=None):
        if data is None:
            rows = list(rows)
            if any(len(row) != len(columns) for row in rows):
                raise ValueError(f"table {name}: every row needs {len(columns)} values")
            data = list(zip(*rows)) if rows else [()] * len(columns)
        if len(data) != len(columns) or len({len(col) for col in data}) > 1:
            raise ValueError(f"table {name}: needs {len(columns)} columns of one length")
        self.name, self.columns, self.data = name, list(columns), list(data)
        self.provenance = {} if provenance is None else provenance

    @property
    def rows(self) -> list:
        return list(zip(*self.data))

    def to_csv(self, path: Path) -> None:
        header = [f"# {k}={v}" for k, v in sorted(self.provenance.items())]
        header.append(",".join(self.columns))
        specs = [_column_spec(col) for col in self.data]
        n_rows = len(self.data[0]) if self.data else 0
        with Path(path).open("w") as fh:
            fh.write("\n".join(header) + "\n")
            for lo in range(0, n_rows, 4096):   # formatted cells live one block at a time
                blocks = [_cells(col[lo:lo + 4096], *spec) for col, spec in zip(self.data, specs)]
                row = ",".join(spec for spec, _ in blocks)
                cells = [c for _, c in blocks]
                text = "\n".join([row] * len(cells[0])) + "\n"
                fh.write(text % tuple(chain.from_iterable(zip(*cells))))


def _values(col):
    """A column block as Python values: numpy scalars format slower."""
    return col.tolist() if isinstance(col, np.ndarray) else col


def _cells(col, spec: str, pre) -> tuple:
    """A column block's %-spec and its cells for it.  A float or bool array
    that repeats values (at most half of them distinct) is formatted once per
    distinct bit pattern, so -0.0 and each NaN keep their own text, and its
    cells are those texts under "%s".  Integers format about as fast as
    their texts index, so they are formatted directly."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "bf":
        bits, inverse = np.unique(col.view(f"u{col.dtype.itemsize}"), return_inverse=True)
        if 2 * len(bits) <= len(col):
            values = _values(bits.view(col.dtype))
            if pre is not None:
                values = list(map(pre, values))
            texts = ("\n".join([spec] * len(values)) % tuple(values)).split("\n")
            return "%s", [texts[i] for i in inverse.tolist()]
    values = _values(col)
    return spec, values if pre is None else list(map(pre, values))


def _column_spec(col) -> tuple:
    """The %-spec of a column and the function that first turns each value into
    what the spec takes (None: the value itself), so that the cell reads as
    ``_fmt`` writes it.  Chosen once per column: from the dtype of a numeric
    array, else from the kinds of the values; a column of mixed kinds goes
    through ``_fmt`` value by value."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "biuf":
        return {"b": ("%s", _bool), "i": ("%d", None), "u": ("%d", None),
                "f": ("%.17g", None)}[col.dtype.kind]
    kinds = set(map(type, _values(col)))
    if all(issubclass(k, (bool, np.bool_)) for k in kinds):
        return "%s", _bool
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return "%.17g", None      # the same digits as format(float(v), ".17g")
    if not any(issubclass(k, (bool, np.bool_, float, np.floating)) for k in kinds):
        return "%s", None
    return "%s", _fmt


def _bool(v) -> str:
    return "true" if v else "false"


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def read_result_table(path) -> ResultTable:
    """Parse a result CSV and verify the provenance header is present."""
    lines = Path(path).read_text().splitlines()
    prov = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        key, _, val = lines[i][1:].strip().partition("=")
        prov[key.strip()] = val
        i += 1
    for needed in ("config_hash", "seed", "version"):
        if needed not in prov:
            raise ValueError(f"missing provenance field {needed!r} in {path}")
    cols = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1:] if line]
    return ResultTable(name=Path(path).stem, columns=cols, rows=rows, provenance=prov)


@dataclass
class ExperimentResult:
    name: str
    tables: dict
    checks: list          # (check_name, passed: bool, detail: str)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy comparisons give numpy.bool_, which JSON would write as 1.0
        self.checks = [(name, bool(ok), detail) for name, ok, detail in self.checks]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary_lines(self) -> list:
        return [f"[{'PASS' if ok else 'FAIL'}] {self.name}/{name}: {detail}"
                for name, ok, detail in self.checks]


def _provenance(config: ExperimentConfig) -> dict:
    return {"config_hash": config.hash(), "seed": config.seed, "version": __version__}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _kernel_table(rep: dict, prov: dict) -> ResultTable:
    return ResultTable("kernels", ["t", "K_b_hat", "K_b_exact", "rel_err"], provenance=prov,
                       data=[rep["t"], rep["khat"][:, 0, 0], rep["kexact"][:, 0, 0], rep["rel"]])


def run_kernels(config: ExperimentConfig) -> ExperimentResult:
    prov = _provenance(config)
    checks = []
    tables = {}
    kern = config.stage("kernel")
    if config.kernel["family"] != "fractional":
        t_grid = np.geomspace(0.01, config.grid["T"], 64)
        rep = quadrature_error(kern, t_grid, "b")
        checks.append(("atom_representation_exact", rep["sup_rel"] < 1e-12,
                       f"sup rel err {rep['sup_rel']:.3e}"))
        tables["kernels"] = _kernel_table(rep, prov)
        return ExperimentResult("kernels", tables, checks)

    t_grid = np.geomspace(0.01, 1.0, 128)
    rep = quadrature_error(kern, t_grid, "b")
    tables["kernels"] = _kernel_table(rep, prov)
    checks.append(("quadrature_sup_rel_1pc", rep["sup_rel"] <= 0.01,
                   f"sup rel err {rep['sup_rel']:.3e} on t in [0.01, 1]"))

    denser = replace(config, kernel={**config.kernel,
                                     "n_nodes": 2 * config.kernel["n_nodes"]}).make_kernel()
    rep2 = quadrature_error(denser, t_grid, "b")
    checks.append(("quadrature_error_decreases", rep2["sup_rel"] < rep["sup_rel"],
                   f"{rep['sup_rel']:.3e} -> {rep2['sup_rel']:.3e} at 2x nodes"))

    norm_rows = []
    ok_norm = True
    for which in ("b", "sigma"):
        ana = kern.analytic(which)
        for q in (1.0, 2.0):
            if q * (ana.beta - 1.0) + 1.0 <= 0:
                continue
            for eps in (0.05, 0.2, 0.8):
                closed = knorm_eps(ana, which, q, eps)
                numeric = knorm_eps(ana, which, q, eps, closed_form=False)
                ok = abs(closed - numeric) <= 1e-8 * max(1.0, closed)
                ok_norm = ok_norm and ok
                norm_rows.append((which, q, eps, closed, numeric, abs(closed - numeric)))
    tables["knorms"] = ResultTable("knorms", ["which", "q", "eps", "closed", "quadrature", "abs_err"],
                                   norm_rows, prov)
    checks.append(("knorm_closed_vs_quadrature", ok_norm, "closed forms at 1e-8"))
    return ExperimentResult("kernels", tables, checks)


def run_simulate(config: ExperimentConfig) -> ExperimentResult:
    prov = _provenance(config)
    kern, coeffs, u_hat = config.stage("kernel"), config.stage("problem"), config.stage("u_hat")
    ens, X = config.stage("ensemble"), config.stage("x_hat")
    grid, xi = ens.grid, config.solver["xi"]
    checks = []
    # the lift's first rows are its run on the first paths, bit for bit
    ens_sub = ens.first_paths(min(ens.n_paths, 64))
    Xd = simulate_sve(coeffs, u_hat, kern, xi, ens_sub, mode="direct", self_test=False)
    dev = float(np.max(np.abs(X[:ens_sub.n_paths] - Xd)))
    checks.append(("lift_direct_identity", dev <= 1e-10, f"max deviation {dev:.3e}"))

    cap = min(ens.n_paths, 256)
    states = [np.repeat(np.arange(cap), grid.n_steps + 1), np.tile(grid.t, cap),
              X[:cap, :, 0].reshape(-1)]
    tables = {"states": ResultTable("states", ["path", "t", "X"], provenance=prov,
                                    data=states)}
    summary = {"cnorm_p2": cnorm(X, 2.0), "cnorm_p4": cnorm(X, 4.0),
               "n_paths": ens.n_paths, "written_paths": cap}
    return ExperimentResult("simulate", tables, checks, extras={"summary": summary})


def _rate_targets(config: ExperimentConfig, coeffs) -> dict:
    """Expected decay powers per quantity, from kernel and problem structure.

    With a controlled diffusion the noise channel dominates and the base
    power is min(beta_b, beta_sigma - 1/2) (1/2 for bounded kernels); with a
    control-free diffusion only the drift channel is excited and the base
    power is beta_b (1 for bounded kernels).
    """
    if config.kernel["family"] == "fractional":
        bb, bs = config.kernel["beta_b"], config.kernel["beta_sigma"]
        base = bb if coeffs.tags.sigma_control_free else min(bb, bs - 0.5)
    else:
        base = 1.0 if coeffs.tags.sigma_control_free else 0.5
    return {"X1": base, "dX1": 2 * base, "dX12": 3 * base, "dX": base, "X2": 2 * base}


def _rate_widths(config: ExperimentConfig) -> list:
    """The spike widths of the rate sweep: those spanning >= 4 grid steps."""
    dt = config.make_grid().dt
    return [e for e in config.spike["eps_list"] if round(e / dt) >= 4]


def run_rates(config: ExperimentConfig) -> ExperimentResult:
    prov = _provenance(config)
    kern, coeffs, u_hat = config.stage("kernel"), config.stage("problem"), config.stage("u_hat")
    ens = config.stage("ensemble")
    grid = ens.grid
    v = ControlPath.constant(config.spike["v"], grid, du=coeffs.du)
    res = remainder_rates(coeffs, kern, u_hat, v, config.spike["tau"],
                          _rate_widths(config), config.solver["xi"], ens)
    targets = _rate_targets(config, coeffs)
    nan = float("nan")
    norm_scale = {}
    for r in res["rows"]:
        norm_scale[r["quantity"]] = max(norm_scale.get(r["quantity"], 0.0), r["norm"])
    # identically zero quantities (structurally, or with every norm at roundoff)
    # have no slope: their fits are fits to roundoff, and the table says NaN
    zero = {q for q, fit in res["fits"].items()
            if fit.get("exact_zero") or norm_scale.get(q, 0.0) <= 1e-10}
    dj_fit = res["delta_j12_fit"]
    dj_scale = max(abs(d) for _, d, _ in res["delta_j12"])
    rows = []
    for r in res["rows"]:
        fit = {} if r["quantity"] in zero else res["fits"][r["quantity"]]
        rows.append((r["quantity"], r["eps"], r["norm"], r["knorm_combo"],
                     fit.get("eps_slope", nan), fit.get("eps_r2", nan)))
    dj_exact = dj_scale <= 1e-10
    dj_slope = dj_fit["eps_slope"] if dj_fit and not dj_exact else nan
    for eps, dj, dj_se in res["delta_j12"]:
        rows.append(("delta_j12", eps, abs(dj), nan, dj_slope, nan if dj_exact else dj_se))
    tables = {"rates": ResultTable(
        "rates", ["quantity", "eps", "norm", "knorm_combo", "slope_fit", "r2"], rows, prov)}

    checks = []
    for q in ("X1", "dX1"):
        fit = res["fits"][q]
        if q in zero:
            # structurally vanishing quantity (e.g. the first-order remainder
            # of a linear control-affine problem); no slope to fit
            checks.append((f"slope_{q}", True,
                           f"identically zero (max norm {norm_scale.get(q, 0.0):.1e})"))
            continue
        dev = abs(fit["eps_slope"] - targets[q])
        checks.append((f"slope_{q}", dev <= 0.2,
                       f"slope {fit['eps_slope']:.3f}, target {targets[q]:.2f} +- 0.2"))
    bb, bs = config.kernel.get("beta_b", 1.0), config.kernel.get("beta_sigma", 1.0)
    order_regime = (config.kernel["family"] != "fractional") or (bb > 1 / 3 and bs > 5 / 6)
    if dj_exact:
        checks.append(("delta_j12_superlinear", True,
                       f"expansion exact for this structure (max |delta J| {dj_scale:.1e})"))
    elif dj_fit is None:
        checks.append(("delta_j12_superlinear", False, "fit unavailable (zero gaps)"))
    else:
        ok = dj_fit["eps_slope"] - dj_fit["se_slope"] >= 1.0
        checks.append(("delta_j12_superlinear", ok or not order_regime,
                       f"slope {dj_fit['eps_slope']:.3f} (se {dj_fit['se_slope']:.3f})"))
    lift = {"paths": ens.n_paths, "steps": grid.n_steps, "nodes": kern.n_nodes,
            "processes": 1 + 3 * len(res["bundles"])}
    timing = {"lift": lift, "tabulated": dict(res["bundles"][0].tabulated)}
    return ExperimentResult("rates", tables, checks, extras={"timing": timing})


def run_bsde_check(config: ExperimentConfig) -> ExperimentResult:
    prov = _provenance(config)
    ens = config.stage("ensemble")
    grid = ens.grid
    rows = []
    checks = []
    instances = [
        ("terminal_brownian", 0.0, dict(terminal_wt=1.0)),
        ("constant_generator", 1.0 / 3.0, dict(generator=1.0)),
    ]
    for label, alpha, kw in instances:
        ratios = []
        for kappa in (1.0, 10.0, 100.0, 1000.0, 10000.0):
            inst = BSDEInstance(grid, kappa=kappa, alpha=alpha, **kw)
            sol = solve_bsde_closedform(inst)
            r = apriori_ratio(inst, sol, ens)
            ratios.append(r["ratio"])
            rows.append((label, kappa, alpha, r["ratio"]))
        finite = all(np.isfinite(ratios))
        spread = max(ratios) / min(ratios) if finite and min(ratios) > 0 else np.inf
        checks.append((f"apriori_{label}", finite and spread < 3.0,
                       f"ratios {['%.3f' % x for x in ratios]}, spread {spread:.2f}"))

    mart_worst = 0.0
    mart = (BSDEInstance(grid, kappa=2.0, terminal_const=3.0),
            BSDEInstance(grid, kappa=2.0, terminal_wt=1.0),
            BSDEInstance(grid, kappa=2.0, generator=1.0))
    for inst in mart:
        sol = solve_bsde_closedform(inst)
        mc = martingale_check(sol.p_values(ens), sol.q_values(ens), inst.generator,
                              inst.kappa, ens)
        mart_worst = max(mart_worst, mc["max_pathwise"])
    checks.append(("martingale_residual", mart_worst <= 1e-10,
                   f"max pathwise residual {mart_worst:.3e}"))

    inst = BSDEInstance(grid, kappa=1.0, terminal_const=0.5, terminal_wt=1.0, generator=0.7)
    err = lsmc_relative_error(inst, ens, degree=1, mode="later")
    checks.append(("lsmc_affine_oracle", err <= 1e-3, f"relative error {err:.3e}"))
    rows_l = [("later", ens.n_paths, err)]
    n_small = max(ens.n_paths // 4, 8)
    e_all = sample_brownian(grid, max(ens.n_paths, n_small), config.seed + 1)
    e_small, e_big = e_all.first_paths(n_small), e_all.first_paths(ens.n_paths)
    err_small = lsmc_relative_error(inst, e_small, degree=1, mode="now")
    err_big = lsmc_relative_error(inst, e_big, degree=1, mode="now")
    rows_l += [("now", e_small.n_paths, err_small), ("now", e_big.n_paths, err_big)]
    checks.append(("lsmc_now_mc_convergence", err_big < err_small,
                   f"plain estimator {err_small:.3e} -> {err_big:.3e} at 4x paths"))
    tables = {"bsde": ResultTable("bsde", ["instance", "kappa", "alpha", "ratio"],
                                  rows, prov),
              "lsmc": ResultTable("lsmc", ["mode", "n_paths", "rel_err"], rows_l, prov)}
    timing = {"paths": ens.n_paths, "steps": grid.n_steps,
              "closed_form_instances": len(rows) + len(mart),
              "lsmc": {"later": ens.n_paths, "now": [e_small.n_paths, e_big.n_paths]}}
    return ExperimentResult("bsde-check", tables, checks, extras={"timing": timing})


def _node_recursion_residuals(adj) -> dict:
    """Largest residual of the per-node recursion of the first-order field,
    per part: P0, and on the affine path P1 and Q0."""
    dec, om = sweep_factors(adj.kernel.nodes, adj.grid.dt)
    P0 = adj.first.P0[:, :, 0]
    G0 = adj.first.G0[:, :, 0]
    resid = {"P0": P0[:-1] - dec[None, :] * P0[1:] - om[None, :] * G0[:-1]}
    if adj.first.P1 is not None:
        # affine path: the Z coefficient P1 has no generator, and Q0 = e^{-theta dt} P1 vol
        P1 = adj.first.P1[:, :, 0]
        resid["P1"] = P1[:-1] - dec[None, :] * P1[1:]
        resid["Q0"] = (adj.first.Q0[:-1, :, 0]
                       - dec[None, :] * P1[1:] * adj.first.Z.vol[:-1, None])
    return {part: float(np.max(np.abs(r))) for part, r in resid.items()}


def run_adjoint(config: ExperimentConfig) -> ExperimentResult:
    prov = _provenance(config)
    adj = config.stage("adjoints")
    grid = adj.grid
    checks = []
    d1, d2 = adj.first.distances, adj.second.distances
    ratios, ratios2 = _contraction_ratios(d1), _contraction_ratios(d2)
    if adj.solve_path == "deterministic" and len(d1) >= 4:
        ok = all(r <= 0.9 for r in ratios) and len(d1) <= 50 and d1[-1] < PICARD_TOL
        checks.append(("picard_geometric_first", ok,
                       f"{len(d1)} iterations, worst ratio from #3 "
                       f"{max(ratios) if ratios else 0.0:.3f}"))
    ok2 = all(r <= 0.9 for r in ratios2) and len(d2) <= 50
    checks.append(("picard_geometric_second", ok2,
                   f"{len(d2)} iterations, worst ratio from #3 "
                   f"{max(ratios2) if ratios2 else 0.0:.3f}"))

    res = _node_recursion_residuals(adj)
    node_res = max(res.values())
    detail = f"max {node_res:.3e}"
    if len(res) > 1:
        detail += " (" + ", ".join(f"{part} {r:.3e}" for part, r in res.items()) + ")"
    checks.append(("node_recursion_residual", node_res <= 1e-10, detail))

    th = adj.kernel.nodes
    K = th.size
    m_p = np.arange(0, grid.n_steps + 1, max(1, grid.n_steps // 16))
    m_P = np.arange(0, grid.n_steps + 1, max(1, grid.n_steps // 8))
    tables = {
        "p": ResultTable("p", ["t", "theta", "p_det"], provenance=prov, data=[
            np.repeat(grid.t[m_p], K), np.tile(th, m_p.size),
            adj.first.P0[m_p, :, 0].reshape(-1)]),
        "P": ResultTable("P", ["t", "theta1", "theta2", "P"], provenance=prov, data=[
            np.repeat(grid.t[m_P], K * K), np.tile(np.repeat(th, K), m_P.size),
            np.tile(th, m_P.size * K), adj.second.P[m_P, :, :, 0, 0].reshape(-1)]),
        "contractions": ResultTable("contractions", ["t", "mu_Mb_p", "mu_Ms_q", "risk"],
                                    provenance=prov, data=[grid.t, adj.Ab0[:, 0],
                                                           adj.Aq0[:, 0], adj.Rss[:, 0, 0]]),
    }
    timing = {"solve_path": adj.solve_path,
              "picard_iterations": {"first": adj.first.iterations,
                                    "second": adj.second.iterations},
              "worst_contraction_ratio": max(ratios + ratios2, default=0.0)}
    return ExperimentResult("adjoint", tables, checks,
                            extras={"adjoint": adj, "timing": timing})


def _contraction_ratios(d) -> list:
    """Successive Picard distance ratios from the third iteration on."""
    return [d[i + 1] / d[i] for i in range(2, len(d) - 1) if d[i] > 0]


def _display_check(order: str, r: dict) -> tuple:
    """The display residual's mean within 3 standard errors of 0.  Without
    noise (SE exactly 0) the mean is roundoff alone, so it is held to the exact
    identities' bound instead: 1e-8 on their max(1, max |lhs|) scale."""
    mean, se = r["display_mean"], r["display_se"]
    if se > 0:
        return f"{order}_display_3se", abs(mean) <= 3 * se, f"mean {mean:.3e}, se {se:.3e}"
    rel = abs(mean) / r["scale"]
    return (f"{order}_display_3se", rel <= 1e-8,
            f"mean {mean:.3e}, se 0 (no noise): |mean| / scale {rel:.3e} against the exact "
            f"bound 1e-8")


def run_duality(config: ExperimentConfig) -> ExperimentResult:
    """Both duality identities at the config's path count and the first-order
    display SE at 1000, 4000 and 16000 paths, all from one co-simulation on
    the largest ensemble: each smaller ensemble of the same seed is a prefix
    of it, and so are its states, adjoint tables and residuals."""
    prov = _provenance(config)
    n_paths = config.grid["n_paths"]
    # the same stages as the config's own, built on the largest ensemble
    big = replace(config, grid={**config.grid, "n_paths": max(n_paths, *DUALITY_PATH_SWEEP)})
    kern, coeffs, ens = big.stage("kernel"), big.stage("problem"), big.stage("ensemble")
    grid = ens.grid
    eps = config.spike["eps_list"][min(1, len(config.spike["eps_list"]) - 1)]
    spike = SpikeSpec(tau=config.spike["tau"], eps=eps,
                      v=ControlPath.constant(config.spike["v"], grid, du=coeffs.du))
    res = duality_residuals(coeffs, spike, big.stage("adjoints"), ens, xi=config.solver["xi"])
    r1, r2 = duality_stats(res["first"], n_paths), duality_stats(res["second"], n_paths)
    checks = [
        ("first_exact", r1["exact_max"] <= 1e-8, f"max pathwise {r1['exact_max']:.3e}"),
        ("second_exact", r2["exact_max"] <= 1e-8, f"max pathwise {r2['exact_max']:.3e}"),
        _display_check("first", r1),
        _display_check("second", r2),
    ]
    rows = [("first", "exact_max", r1["exact_max"], 0.0),
            ("first", "display", r1["display_mean"], r1["display_se"]),
            ("second", "exact_max", r2["exact_max"], 0.0),
            ("second", "display", r2["display_mean"], r2["display_se"])]
    ses = []
    for n in DUALITY_PATH_SWEEP:
        rr = duality_stats(res["first"], n)
        ses.append(rr["display_se"])
        rows.append(("first_sweep", f"display@{n}", rr["display_mean"], rr["display_se"]))
    if min(ses) > 0:
        fit = fit_loglog(np.asarray(DUALITY_PATH_SWEEP, dtype=float), np.asarray(ses))
        checks.append(("se_shrinks_sqrt_paths", abs(fit["slope"] + 0.5) <= 0.15,
                       f"log-log SE slope {fit['slope']:.3f} (target -0.5 +- 0.15)"))
    else:   # no log-log fit: a noise-free display residual has SE 0 at every count
        checks.append(("se_shrinks_sqrt_paths", max(ses) == 0.0,
                       "display SE " + ", ".join(f"{se:.3e}" for se in ses)
                       + f" at {DUALITY_PATH_SWEEP} paths"))
    tables = {"duality": ResultTable("duality", ["order", "kind", "value", "se"],
                                     rows, prov)}
    timing = {"lift": {"paths": ens.n_paths, "steps": grid.n_steps, "nodes": kern.n_nodes,
                       "processes": 4},
              "prefixes": {"checks": n_paths, "se_sweep": list(DUALITY_PATH_SWEEP)},
              "pair_terms": res["pair_terms"], "tabulated": dict(res["bundle"].tabulated)}
    return ExperimentResult("duality", tables, checks, extras={"timing": timing})


def run_mp_check(config: ExperimentConfig) -> ExperimentResult:
    prov = _provenance(config)
    kern, coeffs, ens = config.stage("kernel"), config.stage("problem"), config.stage("ensemble")
    grid, xi = ens.grid, config.solver["xi"]
    u_pts = coeffs.control_domain.points
    checks = []
    reports = []

    # the controls here are not the reference control, so their solves are not
    # stages; mp-check runs only on the deterministic solve path, which reads
    # no state, and a state is simulated only where the gap tables read one
    def check(u: ControlPath) -> tuple:
        """The variational inequality along ``u``, its gap tables and its state
        (None where the gap reads none); each adjoint is dropped once used:
        three alive at once set the RSS peak."""
        tabs = gap_tables(coeffs, u, u_pts, grid)
        x = simulate_sve(coeffs, u, kern, xi, ens) if tabs.state_degree else None
        adj = assemble_adjoints(coeffs, u, x, kern, ens, tol=PICARD_TOL)
        reports.append(check_variational_inequality(coeffs, u, adj, u_pts, ens, x, tables=tabs))
        return reports[-1], tabs, x

    u0 = ControlPath.constant(0.0, grid, du=coeffs.du)
    # the argmax reads the first-order contractions alone
    u_hat = construct_argmax_control(coeffs, assemble_first_adjoint(coeffs, u0, None, kern, ens,
                                                                    tol=PICARD_TOL), grid)
    rep, tabs, x_hat = check(u_hat)
    checks.append(("argmax_control_passes", rep.passed,
                   f"min gap {rep.min_gap:.3e} at {rep.min_location}"))
    if coeffs.tags.sigma_control_free:
        checks.append(("sigma_free_quadratic_term_zero", rep.max_quadratic_term == 0.0,
                       f"max quadratic contribution {rep.max_quadratic_term:.3e}"))

    t_lo = 0.25 * grid.T
    t_hi = 0.375 * grid.T
    bad_value = None
    for cand in u_pts[:, 0]:
        if not np.any(np.isclose(u_hat.values[grid.index_of(t_lo):grid.index_of(t_hi), 0], cand)):
            bad_value = float(cand)
            break
    if bad_value is None:
        checks.append(("perturbation_fails_on_interval", False, "u_hat takes every control "
                       "value on [T/4, 3T/8], so none is left to perturb it with"))
    else:
        rep_bad = check(perturb_control(u_hat, grid, t_lo, t_hi, bad_value))[0]
        viol = sorted({t for (t, v, g, s, ok) in rep_bad.rows if not ok})
        localized = (not rep_bad.passed and viol
                     and min(viol) >= t_lo - 1e-12 and max(viol) < t_hi - 1e-12)
        checks.append(("perturbation_fails_on_interval", bool(localized),
                       f"violations on [{min(viol) if viol else float('nan'):.4f}, "
                       f"{max(viol) if viol else float('nan'):.4f}]"))

    tables = {"mp": ResultTable("mp", ["t", "v", "gap", "se", "pass"], rep.rows, prov)}

    if kern.n_nodes == 1 and kern.nodes[0] == 0.0:
        cl = classical_adjoint_gaps(coeffs, u_hat, u_pts, grid, x_hat, tables=tabs)
        gaps_field = {(t, v): g for (t, v, g, s, ok) in rep.rows}
        dev = max(abs(gaps_field[key] - cl["gaps"][key]) for key in cl["gaps"])
        checks.append(("classical_reference_match", dev <= 1e-10, f"max gap deviation {dev:.3e}"))
    gap = {"state_degree": max(r.state_degree for r in reports),
           "per_path": any(r.per_path for r in reports),
           "states_simulated": sum(r.state_degree > 0 for r in reports)}
    return ExperimentResult("mp-check", tables, checks, extras={"timing": {"gap": gap}})


def run_bsvie_check(config: ExperimentConfig) -> ExperimentResult:
    prov = _provenance(config)
    kern, coeffs, u_hat = config.stage("kernel"), config.stage("problem"), config.stage("u_hat")
    ens, adj = config.stage("ensemble"), config.stage("adjoints")
    grid = ens.grid
    checks = []
    rows = []
    tup = bsee_to_bsvie_first(adj, kern)
    res = bsvie_residual_first(tup, coeffs, u_hat, kern, ens)
    rows += [("first_line1", 0.0, res["res_line1"]), ("first_line2", 0.0, res["res_line2"])]
    checks.append(("first_order_residuals", max(res["res_line1"], res["res_line2"]) <= 1e-8,
                   f"line1 {res['res_line1']:.3e}, line2 {res['res_line2']:.3e}"))
    mres = m_constraint_residual_first(tup, ens)
    rows.append(("first_m_constraint", 0.0, mres))
    checks.append(("m_constraint", mres <= 1e-8, f"residual {mres:.3e}"))
    if tup.deterministic:
        prec = reconstruct_first_field(tup, kern, grid)
        rt = float(np.max(np.abs(prec - adj.first.P0[:, :, 0])))
        rows.append(("first_roundtrip", 0.0, rt))
        checks.append(("first_roundtrip", rt <= 1e-8, f"max field deviation {rt:.3e}"))

    tup2 = bsee_to_bsvie_second(coeffs, adj, kern, ens,
                                r_subgrid=config.solver["r_subgrid"])
    res2 = bsvie_residual_second(tup2, coeffs, adj, kern)
    for key, val in res2.items():
        rows.append((f"second_{key}", 0.0, val))
    zero_coupling = (coeffs.tags.state_free
                     or (abs(float(np.max(np.abs(tup2.P2)))) < 1e-14))
    if zero_coupling:
        checks.append(("second_order_residuals",
                       max(res2.values()) <= 1e-8,
                       f"max residual {max(res2.values()):.3e}"))
        prec2 = reconstruct_second_field(tup2, kern)
        rt2 = float(np.max(np.abs(prec2 - adj.second.P[:, :, :, 0, 0])))
        rows.append(("second_roundtrip", 0.0, rt2))
        checks.append(("second_roundtrip", rt2 <= 1e-8, f"max field deviation {rt2:.3e}"))
    else:
        exact_eqs = max(res2["res_eq1"], res2["res_eq2"], res2["res_eq4"])
        checks.append(("second_order_exact_equations", exact_eqs <= 1e-8,
                       f"eq1/eq2/eq4 max {exact_eqs:.3e}"))
        rows.append(("second_eq3_consistency", 0.0, res2["res_eq3"]))
    tables = {"bsvie": ResultTable("bsvie", ["equation", "grid_point", "residual"],
                                   rows, prov)}
    return ExperimentResult("bsvie-check", tables, checks)


RUNNERS = {
    "kernels": run_kernels,
    "simulate": run_simulate,
    "rates": run_rates,
    "bsde-check": run_bsde_check,
    "adjoint": run_adjoint,
    "duality": run_duality,
    "mp-check": run_mp_check,
    "bsvie-check": run_bsvie_check,
}
EXPERIMENTS = (*RUNNERS, "all")


def _applies(name: str, config: ExperimentConfig) -> tuple[bool, str]:
    # every reference control of the experiments is a deterministic table
    path = choose_solve_path(config.stage("problem").tags, config.solver["lsmc"], True)
    if name == "mp-check" and path != "deterministic":
        return False, "needs a problem with deterministic, control-independent adjoint data"
    if name == "mp-check" and config.grid["n_steps"] % 8:
        return False, "its perturbation interval [T/4, 3T/8] needs grid.n_steps divisible by 8"
    if name in ("adjoint", "bsvie-check") and path is None:
        return False, "problem needs the regression solve path (solver.lsmc)"
    if name == "rates" and len(_rate_widths(config)) < 4:
        return False, "fewer than 4 spike widths span >= 4 grid steps"
    if name == "duality" and path not in ("deterministic", "affine"):
        return False, ("exact duality needs a closed-form first-order field; the "
                       "regression solve path only estimates it")
    return True, ""


def _run_one(name: str, config: ExperimentConfig) -> ExperimentResult:
    """One experiment: skipped with the reason where it does not apply, a
    failed ``problem`` check when the coefficients fail their self-test, and a
    failed ``solver`` check when a solve does not contract, goes non-finite or
    cannot allocate its arrays.  Its timing records each stage it read, built
    or taken from the config's memo, where the reference state it built read
    its forcing (Taylor "tables" or "evaluators"), and the retained ranks and
    worst condition of the regression solve of the adjoints stage it built."""
    ok, why = _applies(name, config)
    if not ok:
        return ExperimentResult(name, {}, [("skipped", True, why)])
    t0 = time.perf_counter()
    with lift_tally() as tally, _stage_log() as stages:
        try:
            res = RUNNERS[name](config)
        except SelfTestError as exc:
            res = ExperimentResult(name, {}, [("problem", False, f"SelfTestError: {exc}")])
        except (PicardError, FloatingPointError, MemoryError) as exc:
            res = ExperimentResult(name, {}, [("solver", False, f"{type(exc).__name__}: {exc}")])
    timing = res.extras.setdefault("timing", {})
    timing["wall_s"] = time.perf_counter() - t0
    if tally["y_updates"]:
        timing.setdefault("lift", {}).update(tally)
    if stages:
        timing["stages"] = stages
    if stages.get("x_hat") == "built":
        tabulated = table_degrees(config.stage("problem"), config.stage("u_hat"))
        timing["x_hat_forcing"] = "tables" if {"b", "sigma"} <= tabulated.keys() else "evaluators"
    # every regression solve of the experiments is the adjoints stage's
    if stages.get("adjoints") == "built" and (record := config.stage("adjoints").first.regression):
        timing["lsmc"] = record
    return res


def run_experiment(name: str, config: ExperimentConfig) -> dict:
    """Run one experiment (or all applicable ones); returns name -> result."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    return {exp: _run_one(exp, config) for exp in (RUNNERS if name == "all" else (name,))}


def prepare_output(out: Path, single: bool) -> None:
    """Make the directory ``write_results`` writes to (for a .csv ``out`` of a
    single experiment, its parent), or raise ``ConfigError`` saying why not."""
    try:
        (out.parent if single and out.suffix == ".csv" else out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror or exc}") from None


def write_results(results: dict, config: ExperimentConfig, out: Path) -> list:
    """Emit CSV tables, summary JSON and the resolved config; returns paths.

    ``out`` may name a single .csv file (the experiment's primary table goes
    there, secondary tables next to it) or a directory.  Table files carry
    bare names for a single experiment and experiment-prefixed names for
    combined runs.
    """
    out = Path(out)
    if out.suffix == ".csv" and len(results) == 1:
        res = next(iter(results.values()))
        out.parent.mkdir(parents=True, exist_ok=True)
        written = []
        for i, (tname, table) in enumerate(res.tables.items()):
            path = out if i == 0 else out.with_name(f"{out.stem}_{tname}.csv")
            table.to_csv(path)
            written.append(path)
        (out.with_suffix(".resolved.json")).write_text(
            json.dumps(config.resolved(), indent=2, sort_keys=True, default=float) + "\n")
        return written
    out.mkdir(parents=True, exist_ok=True)
    written = []
    summary = {}
    timings = {}
    prefix_tables = len(results) > 1
    for exp_name, res in results.items():
        t0 = time.perf_counter()
        for tname, table in res.tables.items():
            fname = (f"{exp_name.replace('-', '_')}_{tname}.csv" if prefix_tables
                     else f"{tname}.csv")
            path = out / fname
            table.to_csv(path)
            written.append(path)
        write_s = time.perf_counter() - t0
        summary[exp_name] = {
            "passed": res.passed,
            "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in res.checks],
        }
        if "summary" in res.extras:
            summary[exp_name]["summary"] = res.extras["summary"]
        if "timing" in res.extras:
            timings[exp_name] = {**res.extras["timing"], "write_s": write_s}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True,
                                                 default=float) + "\n")
    (out / "resolved_config.json").write_text(
        json.dumps(config.resolved(), indent=2, sort_keys=True, default=float) + "\n")
    if timings:
        # wall-clock sidecar: excluded from the byte-determinism contract
        (out / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True,
                                                     default=float) + "\n")
    written.append(out / "summary.json")
    return written
