"""Span tracer for volterra_smp, installed from outside the package.

``Tracer.installed()`` replaces selected public functions of the
``volterra_smp`` modules by timing wrappers and restores the originals on
exit.  Every module attribute (and every registry dict entry, such as
``harness.RUNNERS``) bound to a wrapped function object is patched, because
the modules import each other's names directly.  Nothing under ``src/``
changes.

Spans (name, start, end, parent, pass id) are kept in memory and written out
by the caller.  High-frequency callbacks (coefficient evaluations) are
"leaf" spans: they are timed and nested like other spans, but stored as one
aggregate per (name, parent) instead of one record per call.

A span's self time is its duration minus the durations of its direct
children.  Fingerprinting of stage inputs (for the duplicate-stage ratio) and
the other boundary counters are bookkeeping: their time goes to
``trace.bookkeeping_s``, not to the span that was open.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import pkgutil
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from workloads import BATTERY_EXPERIMENTS as EXPERIMENTS  # the harness stages traced

# Per-layer metrics: name -> (unit, better).  The traced run prints exactly
# these, and BENCHMARK.json lists exactly these under "per_layer".
PER_LAYER = {
    "rng.normal_matrix.self_s": ("s", "lower"),
    "rng.draws": ("count", "lower"),
    "simulate.sample_brownian.self_s": ("s", "lower"),
    "simulate.simulate_sve.self_s": ("s", "lower"),
    "simulate.simulate_sve.calls": ("count", "lower"),
    "simulate.simulate_lift.self_s": ("s", "lower"),
    "simulate.lift_updates": ("count", "lower"),
    "variation.bundle.self_s": ("s", "lower"),
    "variation.bundle.calls": ("count", "lower"),
    "variation.lift_updates": ("count", "lower"),
    "variation.useful_step_ratio": ("ratio", "higher"),
    "variation.remainder_rates.self_s": ("s", "lower"),
    "maxprinciple.check_variational_inequality.self_s": ("s", "lower"),
    "bsee.assemble.self_s": ("s", "lower"),
    "bsee.assemble.calls": ("count", "lower"),
    "bsee.first.deterministic.self_s": ("s", "lower"),
    "bsee.first.affine.self_s": ("s", "lower"),
    "bsee.first.lsmc.self_s": ("s", "lower"),
    "bsee.second.self_s": ("s", "lower"),
    "bsee.picard_iterations.first": ("count", "lower"),
    "bsee.picard_iterations.second": ("count", "lower"),
    "bsee.worst_contraction_ratio": ("ratio", "lower"),
    "bsvie.residual_first.self_s": ("s", "lower"),
    "bsvie.to_second.self_s": ("s", "lower"),
    "bsvie.residual_second.self_s": ("s", "lower"),
    "bsvie.reconstruct_second.self_s": ("s", "lower"),
    "bsvie.r_family_points": ("count", "lower"),
    "bsde.closedform.self_s": ("s", "lower"),
    "bsde.apriori_ratio.self_s": ("s", "lower"),
    "bsde.lsmc.self_s": ("s", "lower"),
    "kernels.build.self_s": ("s", "lower"),
    "kernels.quadrature_error.self_s": ("s", "lower"),
    "kernels.knorm_eps.self_s": ("s", "lower"),
    "coefficients.eval.self_s": ("s", "lower"),
    "coefficients.eval.calls": ("count", "lower"),
    **{f"harness.{e}.s": ("s", "lower") for e in EXPERIMENTS},
    **{f"harness.{e}.self_s": ("s", "lower") for e in EXPERIMENTS},
    "harness.write_results.self_s": ("s", "lower"),
    "harness.bytes_written": ("B", "lower"),
    "harness.brownian_path_steps": ("count", "lower"),
    "harness.duplicate_stage_ratio": ("ratio", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.tracing_overhead_s": ("s", "lower"),
    "trace.bookkeeping_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

COEFFICIENT_FIELDS = ("b", "sigma", "f", "h", "b_x", "sigma_x", "f_x", "h_x",
                      "b_xx", "sigma_xx", "f_xx", "h_xx")


def _digest(arr) -> str:
    a = np.ascontiguousarray(np.asarray(arr))
    h = hashlib.blake2b(a.tobytes(), digest_size=16)
    h.update(repr((a.dtype.str, a.shape)).encode())
    return h.hexdigest()


def _fingerprint(value):
    """Hashable identity of a stage input, by content, not by object id."""
    from volterra_smp.coefficients import CoefficientSet, ControlPath
    from volterra_smp.grids import TimeGrid
    from volterra_smp.kernels import DiscreteLaplaceKernel
    from volterra_smp.simulate import BrownianEnsemble

    if isinstance(value, np.ndarray):
        return _digest(value)
    if isinstance(value, TimeGrid):
        return ("grid", value.T, value.n_steps)
    if isinstance(value, BrownianEnsemble):
        return ("ens", value.grid.T, value.grid.n_steps, value.n_paths, value.seed)
    if isinstance(value, DiscreteLaplaceKernel):
        return ("kernel", value.alpha, _digest(value.nodes), _digest(value.weights),
                _digest(value.mb), _digest(value.msigma))
    if isinstance(value, CoefficientSet):
        return ("coeffs", value.name, value.kappa, value.tags)
    if isinstance(value, ControlPath):
        return ("control", value.deterministic, _digest(value.values))
    return repr(value)


@dataclasses.dataclass
class _Frame:
    name: str
    index: int          # position in Tracer.spans, -1 for leaf spans
    child_s: float = 0.0


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, pass id)
        self.leaf_spans = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, s]
        self.pass_id = 0
        self._stack = []
        self._main = threading.get_ident()
        self.begin_pass(0)

    # -- per-pass accumulators ------------------------------------------------

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.bookkeeping_s = 0.0
        self.worst_ratio = 0.0
        self.stage_keys = set()
        self.stage_calls = 0
        self.stage_repeats = 0

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the current pass (without the overhead figure)."""
        c = self.counts
        steps = c["variation.total_steps"]
        out = {
            "rng.normal_matrix.self_s": self.self_s["rng.normal_matrix"],
            "rng.draws": c["rng.draws"],
            "simulate.sample_brownian.self_s": self.self_s["simulate.sample_brownian"],
            "simulate.simulate_sve.self_s": self.self_s["simulate.simulate_sve"],
            "simulate.simulate_sve.calls": self.calls["simulate.simulate_sve"],
            "simulate.simulate_lift.self_s": self.self_s["simulate.simulate_lift"],
            "simulate.lift_updates": c["simulate.lift_updates"],
            "variation.bundle.self_s": self.self_s["variation.bundle"],
            "variation.bundle.calls": self.calls["variation.bundle"],
            "variation.lift_updates": c["variation.lift_updates"],
            "variation.useful_step_ratio": c["variation.useful_steps"] / steps if steps else 0.0,
            "variation.remainder_rates.self_s": self.self_s["variation.remainder_rates"],
            "bsee.assemble.calls": self.calls["bsee.assemble"],
            "bsee.picard_iterations.first": c["bsee.picard_iterations.first"],
            "bsee.picard_iterations.second": c["bsee.picard_iterations.second"],
            "bsee.worst_contraction_ratio": self.worst_ratio,
            "bsvie.r_family_points": c["bsvie.r_family_points"],
            "coefficients.eval.calls": self.calls["coefficients.eval"],
            "harness.bytes_written": c["harness.bytes_written"],
            "harness.brownian_path_steps": c["harness.brownian_path_steps"],
            "harness.duplicate_stage_ratio": (self.stage_repeats / self.stage_calls
                                              if self.stage_calls else 0.0),
            "trace.traced_wall_s": wall_s,
            "trace.bookkeeping_s": self.bookkeeping_s,
        }
        for exp in EXPERIMENTS:
            out[f"harness.{exp}.s"] = self.total_s[f"harness.{exp}"]
        for name in PER_LAYER:
            if name.endswith(".self_s") and name not in out:
                out[name] = self.self_s[name[:-len(".self_s")]]
        attributed = sum(self.self_s.values()) + self.bookkeeping_s
        out["trace.unattributed_s"] = wall_s - attributed
        return out

    # -- span machinery ---------------------------------------------------------

    def _enter(self, name: str, leaf: bool) -> _Frame:
        if leaf:
            frame = _Frame(name, -1)
        else:
            parent = self._stack[-1].index if self._stack else -1
            frame = _Frame(name, len(self.spans))
            self.spans.append((name, 0.0, 0.0, parent, self.pass_id))
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1].child_s += dur
        self.self_s[name] += dur - frame.child_s
        self.total_s[name] += dur
        self.calls[name] += 1
        if frame.index < 0:
            parent = self._stack[-1].name if self._stack else ""
            agg = self.leaf_spans[(name, parent)]
            agg[0] += 1
            agg[1] += dur
        else:
            _, _, _, parent, pid = self.spans[frame.index]
            self.spans[frame.index] = (name, t0, t1, parent, pid)

    def _book(self, t0: float) -> None:
        """Charge time spent since t0 to bookkeeping, not to the open span."""
        dur = time.perf_counter() - t0
        self.bookkeeping_s += dur
        if self._stack:
            self._stack[-1].child_s += dur

    def wrap(self, fn, name, leaf=False, before=None, after=None):
        """Timing wrapper.  ``name`` is a string or a function of the result;
        ``before(bound)`` may edit the bound arguments; ``after(bound, out)``
        records counts.  Calls from other threads run unwrapped."""
        tracer = self
        sig = inspect.signature(fn) if (before or after) else None

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                return fn(*args, **kwargs)
            bound = None
            if sig is not None:
                b0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    before(bound)
                args, kwargs = bound.args, bound.kwargs
                tracer._book(b0)
            frame = tracer._enter(name if isinstance(name, str) else "", leaf)
            t0 = time.perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                label = name if isinstance(name, str) else name(out)
                tracer._exit(frame, label, t0, t1)
                if after is not None and out is not None:
                    b0 = time.perf_counter()
                    after(bound, out)
                    tracer._book(b0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # -- boundary counters ------------------------------------------------------

    def _stage(self, stage: str, bound) -> None:
        key = (stage,) + tuple(_fingerprint(v) for k, v in bound.arguments.items()
                               if k != "self_test")
        self.stage_calls += 1
        self.stage_repeats += key in self.stage_keys
        self.stage_keys.add(key)

    def _contractions(self, distances) -> None:
        d = list(distances or [])
        for i in range(2, len(d) - 1):
            if d[i] > 0:
                self.worst_ratio = max(self.worst_ratio, d[i + 1] / d[i])

    def _specs(self):
        """(module, function) -> wrapper keyword arguments."""
        from volterra_smp.kernels import DiscreteLaplaceKernel

        def count(key, value):
            self.counts[key] += value

        def lift_updates(b, copies=1):
            ens, kern = b.arguments["ens"], b.arguments["kernel"]
            return copies * ens.n_paths * ens.grid.n_steps * kern.n_nodes

        def draws(b, out):
            count("rng.draws", b.arguments["n_paths"] * b.arguments["n_steps"])

        def brownian_before(b):
            self._stage("sample_brownian", b)

        def brownian_after(b, out):
            count("harness.brownian_path_steps", out.n_paths * out.grid.n_steps)

        def sve_before(b):
            self._stage("simulate_sve", b)

        def sve_after(b, out):
            mode = b.arguments["mode"]
            if mode == "lift" or (mode == "auto"
                                  and isinstance(b.arguments["kernel"], DiscreteLaplaceKernel)):
                count("simulate.lift_updates", lift_updates(b))

        def lift_after(b, out):
            count("simulate.lift_updates", lift_updates(b))

        def bundle_after(b, out):
            grid = b.arguments["ens"].grid
            j0, _ = out.spike.window(grid)
            count("variation.lift_updates", lift_updates(b, copies=3))
            count("variation.useful_steps", grid.n_steps - j0)
            count("variation.total_steps", grid.n_steps)

        def assemble_before(b):
            self._stage("assemble_adjoints", b)

        def first_after(b, out):
            count("bsee.picard_iterations.first", out.first.iterations)
            self._contractions(out.first.distances)

        def second_after(b, out):
            count("bsee.picard_iterations.second", out.second.iterations)
            self._contractions(out.second.distances)

        def r_family(b, out):
            count("bsvie.r_family_points", len(out.r_indices))

        def bytes_written(b, out):
            target = Path(b.arguments["out"])
            folder = target if target.is_dir() else target.parent
            count("harness.bytes_written",
                  sum(p.stat().st_size for p in folder.iterdir() if p.is_file()))

        specs = {
            ("rng", "normal_matrix"): dict(name="rng.normal_matrix", after=draws),
            ("simulate", "sample_brownian"): dict(name="simulate.sample_brownian",
                                                  before=brownian_before, after=brownian_after),
            ("simulate", "simulate_sve"): dict(name="simulate.simulate_sve",
                                               before=sve_before, after=sve_after),
            ("simulate", "simulate_lift"): dict(name="simulate.simulate_lift", after=lift_after),
            ("variation", "simulate_variation_bundle"): dict(name="variation.bundle",
                                                             after=bundle_after),
            ("variation", "remainder_rates"): dict(name="variation.remainder_rates"),
            ("maxprinciple", "check_variational_inequality"):
                dict(name="maxprinciple.check_variational_inequality"),
            ("bsee", "assemble_adjoints"): dict(name="bsee.assemble", before=assemble_before),
            ("bsee", "assemble_first_adjoint"): dict(
                name=lambda out: f"bsee.first.{getattr(out, 'solve_path', 'raised')}",
                after=first_after),
            ("bsee", "assemble_second_adjoint"): dict(name="bsee.second", after=second_after),
            ("bsvie", "bsvie_residual_first"): dict(name="bsvie.residual_first"),
            ("bsvie", "bsee_to_bsvie_second"): dict(name="bsvie.to_second", after=r_family),
            ("bsvie", "bsvie_residual_second"): dict(name="bsvie.residual_second"),
            ("bsvie", "reconstruct_second_field"): dict(name="bsvie.reconstruct_second"),
            ("bsde", "solve_bsde_closedform"): dict(name="bsde.closedform"),
            ("bsde", "apriori_ratio"): dict(name="bsde.apriori_ratio"),
            ("bsde", "solve_bsde_lsmc"): dict(name="bsde.lsmc"),
            ("kernels", "build_fractional_lift"): dict(name="kernels.build"),
            ("kernels", "constant_kernel"): dict(name="kernels.build"),
            ("kernels", "exponential_kernel"): dict(name="kernels.build"),
            ("kernels", "quadrature_error"): dict(name="kernels.quadrature_error"),
            ("kernels", "knorm_eps"): dict(name="kernels.knorm_eps"),
            ("harness", "write_results"): dict(name="harness.write_results",
                                               after=bytes_written),
        }
        from volterra_smp import harness
        for exp, runner in harness.RUNNERS.items():
            specs[("harness", runner.__name__)] = dict(name=f"harness.{exp}")
        return specs

    def _traced_problem(self, make_problem):
        """make_problem whose coefficient callables are leaf spans."""
        tracer = self

        def traced(*args, **kwargs):
            coeffs = make_problem(*args, **kwargs)
            return dataclasses.replace(coeffs, **{
                f: tracer.wrap(getattr(coeffs, f), "coefficients.eval", leaf=True)
                for f in COEFFICIENT_FIELDS})

        traced.__wrapped__ = make_problem
        return traced

    @contextlib.contextmanager
    def installed(self, extra_modules=()):
        """Patch the package (and ``extra_modules``) for the duration."""
        import volterra_smp
        modules = [volterra_smp] + [importlib.import_module(f"volterra_smp.{m.name}")
                                    for m in pkgutil.iter_modules(volterra_smp.__path__)]
        modules += list(extra_modules)
        replacements = {}
        for (modname, fname), spec in self._specs().items():
            # a function the package no longer has is simply not traced
            orig = getattr(importlib.import_module(f"volterra_smp.{modname}"), fname, None)
            if orig is not None:
                replacements[id(orig)] = (orig, self.wrap(orig, **spec))
        orig = volterra_smp.coefficients.make_problem
        replacements[id(orig)] = (orig, self._traced_problem(orig))

        undo = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    undo.append((setattr, mod, attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            val[key] = hit[1]
                            undo.append((dict.__setitem__, val, key, item))
        try:
            yield self
        finally:
            for fn, target, key, val in reversed(undo):
                fn(target, key, val)

    def dump(self) -> dict:
        """Spans and leaf aggregates as a JSON-ready dict."""
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "pass": pid}
                      for n, s, e, p, pid in self.spans],
            "leaf_spans": [{"name": n, "parent": p, "calls": v[0], "total_s": v[1]}
                           for (n, p), v in sorted(self.leaf_spans.items())],
        }
