"""Spans around mpfsim's layers, recorded from outside the package.

Each wrap point replaces a public function under the name its caller looks
it up by (the modules import these functions by name), so a span opens at
every call across a layer boundary.  A span records its name, start, end,
parent span and the work counts of that call.  Spans stay in memory; the
worker writes them out when the round ends, and :func:`layer_metrics`
reduces them to the per-layer metrics.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager


def _grid_counts(args, kwargs, out):
    sched, H, ts = args[:3]
    return {"steps": len(sched.steps), "batch": len(ts), "dim": H.dim, "out_bytes": out.nbytes}


def _cache_hit(args, kwargs):
    cache, scale = args[:2]
    return {"hit": float(scale) in cache._cache}


def _loss_counts(args, kwargs, out):
    return {"finite": math.isfinite(out)}


def _entries(args, kwargs, out):
    return {"entries": sum(len(p) for br in out.branches for p in br.layer_probs)}


def _combos(args, kwargs, out):
    return {"combos": sum(len(br.combo_cum) for br in out.branches)}


# (module, attribute, span name, counts before the call, counts after it)
WRAP_POINTS = (
    ("mpfsim.cli", "build_model", "models.build", None, None),
    ("mpfsim.cli", "spec_from_b", "mpf.build", None, None),
    ("mpfsim.cli", "cw_coefficients", "mpf.build", None, None),
    ("mpfsim.optimize", "spec_from_b", "mpf.build", None, None),
    ("mpfsim.mpf", "solve_vandermonde", "mpf.solve", None, None),
    ("mpfsim.sweep", "SuzukiGridCache.__call__", "sweep.cache", _cache_hit, None),
    ("mpfsim.sweep", "schedule_matrices", "schedules.grid_build", None, _grid_counts),
    ("mpfsim.ensembles", "schedule_matrix", "schedules.single_build", None, None),
    ("mpfsim.cli", "distance_curve", "sweep.curve", None, None),
    ("mpfsim.sweep", "exact_evolutions", "operators.exact", None, None),
    ("mpfsim.cli", "exact_evolution", "operators.exact", None, None),
    ("mpfsim.sweep", "ts_matrices", "sweep.combine", None, None),
    ("mpfsim.sweep", "method_matrices", "sweep.combine", None, None),
    ("mpfsim.sweep", "ts_bound", "bounds.bound", None, None),
    ("mpfsim.sweep", "bound_for", "bounds.bound", None, None),
    ("mpfsim.bounds", "zeta_cf", "bounds.zeta", None, None),
    ("mpfsim.bounds", "zeta_matching", "bounds.zeta", None, None),
    ("mpfsim.optimize", "zeta_cf", "bounds.zeta", None, None),
    ("mpfsim.optimize", "zeta_matching", "bounds.zeta", None, None),
    ("mpfsim.cli", "optimize_mpf", "optimize.search", None, None),
    ("mpfsim.optimize", "loss", "optimize.loss", None, _loss_counts),
    ("mpfsim.cli", "materialize", "ensembles.materialize", None, _entries),
    ("mpfsim.cli", "run_estimator", "sampling.estimator", None, None),
    ("mpfsim.sampling", "prepare_sampler", "sampling.prepare", None, _combos),
    ("mpfsim.sampling", "shot_rng", "sampling.rng", None, None),
    ("mpfsim.sampling", "single_shot", "sampling.shot", None, None),
    ("mpfsim.cli", "expected_value", "sampling.expected_value", None, None),
)


def _owner_and_name(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def replace(module: str, attr: str, make_wrapper) -> None:
    """Put ``make_wrapper(original)`` in place of ``module.attr``."""
    owner, name = _owner_and_name(module, attr)
    setattr(owner, name, make_wrapper(getattr(owner, name)))


class Tracer:
    """In-memory span recorder for one worker process.

    ``spans`` holds one list per span: [name, start_ns, end_ns, parent
    index or -1, counts dict or None].
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, counts) -> list:
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, counts]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def install(self, points=WRAP_POINTS) -> None:
        for module, attr, name, before, after in points:
            replace(module, attr, self._wrapper_factory(name, before, after))

    def _wrapper_factory(self, name, before, after):
        def make(original):
            def traced(*args, **kwargs):
                rec = self._open(name, before(args, kwargs) if before else None)
                try:
                    out = original(*args, **kwargs)
                finally:
                    self._close(rec)
                if after:
                    rec[4] = {**(rec[4] or {}), **after(args, kwargs, out)}
                return out

            return traced

        return make

    def write(self, path) -> None:
        """Write the spans as CSV: id, parent, name, start_ns, end_ns, counts."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,counts\n")
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                text = ";".join(f"{k}={v}" for k, v in counts.items()) if counts else ""
                fh.write(f"{i},{parent},{name},{start},{end},{text}\n")


def self_times(spans: list[list]) -> list[int]:
    """Per span: duration minus the union of its children's intervals (ns)."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            if c_end > lo:
                covered += c_end - lo
                reach = c_end
        out.append(end - start - covered)
    return out


# Per-layer metric names with their units, in report order.
LAYER_METRICS = {
    "models.build_s": "s",
    "schedules.grid_builds": "count",
    "schedules.grid_build_s": "s",
    "schedules.grid_steps": "count",
    "schedules.grid_gflops_per_s": "GFLOP/s",
    "schedules.grid_out_mb": "MB",
    "schedules.single_builds": "count",
    "schedules.single_build_s": "s",
    "operators.exact_calls": "count",
    "operators.exact_s": "s",
    "sweep.cache_lookups": "count",
    "sweep.cache_hit_ratio": "ratio",
    "sweep.combine_self_s": "s",
    "sweep.curve_self_s": "s",
    "bounds.bound_calls": "count",
    "bounds.bound_s": "s",
    "mpf.solves": "count",
    "mpf.solve_s": "s",
    "mpf.build_self_s": "s",
    "bounds.zeta_calls": "count",
    "bounds.zeta_s": "s",
    "optimize.loss_evals": "count",
    "optimize.loss_finite_ratio": "ratio",
    "optimize.loss_self_s": "s",
    "optimize.search_self_s": "s",
    "ensembles.entries": "count",
    "ensembles.materialize_s": "s",
    "sampling.combos": "count",
    "sampling.prepare_s": "s",
    "sampling.expected_value_s": "s",
    "sampling.shots": "count",
    "sampling.rng_s": "s",
    "sampling.shot_s": "s",
    "sampling.estimator_self_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "ratio",
}

MB = 2**20


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Reduce one traced round's spans to the span-derived per-layer metrics.

    ``process.cpu_s`` and ``trace.overhead_s`` need the untraced rounds as
    well and are filled in by the caller.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(int)
    own = defaultdict(int)
    count = defaultdict(float)
    for (name, start, end, _, counts), s in zip(spans, selfs):
        calls[name] += 1
        total[name] += end - start
        own[name] += s
        for key, value in (counts or {}).items():
            count[f"{name}.{key}"] += value
    sec = 1e-9
    grid_s = total["schedules.grid_build"] * sec
    # Each step of a batched build is two complex (d x d) @ (d x B*d)
    # products, 8 real flops per complex multiply-add: 16 B d^3 per step.
    grid_flops = sum(
        16.0 * c["batch"] * c["dim"] ** 3 * c["steps"]
        for name, _, _, _, c in spans
        if name == "schedules.grid_build"
    )
    lookups = calls["sweep.cache"]
    evals = calls["optimize.loss"]
    wall_s = total["cli"] * sec
    out = {
        "models.build_s": total["models.build"] * sec,
        "schedules.grid_builds": calls["schedules.grid_build"],
        "schedules.grid_build_s": grid_s,
        "schedules.grid_steps": count["schedules.grid_build.steps"],
        "schedules.grid_gflops_per_s": grid_flops / grid_s / 1e9 if grid_s else 0.0,
        "schedules.grid_out_mb": count["schedules.grid_build.out_bytes"] / MB,
        "schedules.single_builds": calls["schedules.single_build"],
        "schedules.single_build_s": total["schedules.single_build"] * sec,
        "operators.exact_calls": calls["operators.exact"],
        "operators.exact_s": total["operators.exact"] * sec,
        "sweep.cache_lookups": lookups,
        "sweep.cache_hit_ratio": count["sweep.cache.hit"] / lookups if lookups else 0.0,
        "sweep.combine_self_s": own["sweep.combine"] * sec,
        "sweep.curve_self_s": own["sweep.curve"] * sec,
        "bounds.bound_calls": calls["bounds.bound"],
        "bounds.bound_s": total["bounds.bound"] * sec,
        "mpf.solves": calls["mpf.solve"],
        "mpf.solve_s": total["mpf.solve"] * sec,
        "mpf.build_self_s": own["mpf.build"] * sec,
        "bounds.zeta_calls": calls["bounds.zeta"],
        "bounds.zeta_s": total["bounds.zeta"] * sec,
        "optimize.loss_evals": evals,
        "optimize.loss_finite_ratio": count["optimize.loss.finite"] / evals if evals else 0.0,
        "optimize.loss_self_s": own["optimize.loss"] * sec,
        "optimize.search_self_s": own["optimize.search"] * sec,
        "ensembles.entries": count["ensembles.materialize.entries"],
        "ensembles.materialize_s": total["ensembles.materialize"] * sec,
        "sampling.combos": count["sampling.prepare.combos"],
        "sampling.prepare_s": total["sampling.prepare"] * sec,
        "sampling.expected_value_s": total["sampling.expected_value"] * sec,
        "sampling.shots": calls["sampling.shot"],
        "sampling.rng_s": total["sampling.rng"] * sec,
        "sampling.shot_s": total["sampling.shot"] * sec,
        "sampling.estimator_self_s": own["sampling.estimator"] * sec,
        "cli.self_s": own["cli"] * sec,
        "trace.wall_s": wall_s,
        "trace.layer_share": 1.0 - own["cli"] / total["cli"] if total["cli"] else 0.0,
    }
    return {k: float(v) for k, v in out.items()}
