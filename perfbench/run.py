"""mpfsim benchmark: four workloads through the `mpfsim` CLI, checked outside it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --fast

A run repeats whole rounds of the workload until ``--seconds`` have passed
(at least one round).  Each round is a fresh ``worker.py`` process, so every
round pays and measures its own set-up and has its own peak RSS.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics, each the median over the run's rounds, except ``ops_per_s``, which
is the run's total work over its total time.  ``setup_s`` is the median
over at least SETUP_SAMPLES set-ups: the rounds' own and, where the run had
fewer rounds than that, set-up-only processes started after the last
round.  With ``--trace 1`` the run alternates untraced and traced rounds
and reports the per-layer metrics (medians over the traced rounds) and the
tracing overhead.  Every round's
outputs are checked against computations made in ``checks.py``.

``--fast`` runs every workload once untraced and once traced on tiny inputs
with all checks, and exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import LAYER_METRICS
from workloads import NAMES, SIZES, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ROUND_TIMEOUT_S = 150
SETUP_SAMPLES = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed check)."""


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _worker(workload: str, seed: int, size: str, trace: bool, *extra: str) -> dict:
    """Start one worker process, wait for it and return its JSON report."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--out", str(OUT / workload), "--size", size, "--trace", str(int(trace)), *extra]
    t0 = _now_ns()
    try:
        proc = subprocess.run([*argv, "--t0-ns", str(t0)], capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{workload} worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_setup(workload: str, seed: int, size: str) -> float:
    """Set-up time of one untraced worker that exits before its first command."""
    return _worker(workload, seed, size, False, "--setup-only")["setup_s"]


def run_round(workload: str, seed: int, size: str, trace: bool) -> dict:
    """One worker process; returns its report plus the files it wrote."""
    cmds = commands(workload, seed, OUT / workload, size)
    for cmd in cmds:
        for path in cmd.outputs.values():
            path.unlink(missing_ok=True)
    report = _worker(workload, seed, size, trace)
    report["trace"] = trace
    report["files"] = {
        cmd.key: {name: path.read_text() if path.exists() else None for name, path in cmd.outputs.items()}
        for cmd in cmds
    }
    return report


class Checker:
    """Checks every round of one run; references are computed once per run."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self._ref = None
        self.hashes: dict[str, str] = {}
        self.results: list[tuple[str, bool, str]] = []
        self.commands = 0
        self.failed_commands = 0

    def _reference(self):
        if self._ref is None:
            if self.workload.startswith("distance-"):
                self._ref = checks.DistanceReference(self.workload, self.seed, self.size)
            elif self.workload == "sample-syk-cf":
                self._ref = checks.SampleReference(self.seed, self.size)
        return self._ref

    def __call__(self, report: dict) -> None:
        by_key = {c["key"]: c for c in report["commands"]}
        self.commands += len(by_key)
        self.failed_commands += sum(c["rc"] != 0 for c in by_key.values())
        files = report["files"]
        if self.workload.startswith("distance-"):
            c = by_key["distance"]
            out = checks.distance_checks(c["rc"], files["distance"]["csv"], self._reference())
        elif self.workload == "optimize":
            out = []
            for kind, c in by_key.items():
                f = files[kind]
                out += checks.optimize_checks(kind, c["rc"], f["spec"], f["result"], self.size)
                if f["result"] is not None:
                    digest = checks.node_hash(checks.parse_kv(f["result"]))
                    first = self.hashes.setdefault(kind, digest)
                    out.append(checks.check(f"{kind} nodes equal across rounds", digest == first, digest))
        else:
            c = by_key["sample"]
            out = checks.sample_checks(c["rc"], c["stdout"], self._reference())
        self.results += out

    @property
    def attempted(self) -> int:
        return self.commands + len(self.results)

    @property
    def failed(self) -> int:
        return self.failed_commands + sum(not ok for _, ok, _ in self.results)

    def summary(self) -> list[str]:
        lines = [
            f"commands: {self.commands} attempted, {self.failed_commands} failed; "
            f"checks: {len(self.results)} attempted, {sum(not ok for _, ok, _ in self.results)} failed"
        ]
        lines += [f"CHECK FAILED: {name}: {detail}" for name, ok, detail in self.results if not ok]
        if self.hashes:
            lines.append("node sha256[:16]: " + "  ".join(f"{k}={v}" for k, v in sorted(self.hashes.items())))
        return lines


def work_and_time(workload: str, report: dict, size: str) -> tuple[float, float]:
    """One round's work and the seconds it took: grid points and wall time
    for distance, loss evaluations and wall time for optimize, shots and
    time in ``run_estimator`` for sample."""
    if workload.startswith("distance-"):
        return 4 * SIZES[size]["tau_points"], report["wall_s"]
    if workload == "optimize":
        return report["loss_evals"], report["wall_s"]
    return checks.parse_sample(report["commands"][0]["stdout"])["N"], report["estimator_s"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, rounds: list[dict], probes: list[float], size: str) -> dict:
    med = lambda key: statistics.median(r[key] for r in rounds)
    work = [work_and_time(workload, r, size) for r in rounds]
    values = {
        "setup_s": statistics.median([*probes, *(r["setup_s"] for r in rounds)]),
        "wall_s": med("wall_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ops_per_s": math.fsum(w for w, _ in work) / math.fsum(t for _, t in work),
    }
    return {k: _metric(v, END_TO_END[k]) for k, v in values.items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    layers = [r["layers"] for r in traced]
    values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    values["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(r["wall_s"] for r in untraced)
    return {k: _metric(values[k], unit) for k, unit in LAYER_METRICS.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple[dict, Checker]:
    checker = Checker(workload, seed, size)
    untraced, traced, probes = [], [], []
    start = time.monotonic()
    while not untraced or (trace and not traced) or time.monotonic() - start < seconds:
        if trace and len(traced) < len(untraced):
            traced.append(run_round(workload, seed, size, True))
        else:
            untraced.append(run_round(workload, seed, size, False))
    if not trace:
        probes = [probe_setup(workload, seed, size) for _ in range(SETUP_SAMPLES - len(untraced))]
    for i, r in enumerate(untraced + traced):
        checker(r)
        kind = "traced" if r["trace"] else "untraced"
        print(f"{workload} round {i} ({kind}): wall_s={r['wall_s']:.4f} setup_s={r['setup_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} cpu_s={r['cpu_s']:.3f} "
              f"estimator_s={r.get('estimator_s', 0.0):.4f} rc={[c['rc'] for c in r['commands']]}")
    if probes:
        print(f"{workload} setup probes: " + " ".join(f"{t:.4f}" for t in probes))
    metrics = per_layer(untraced, traced) if trace else end_to_end(workload, untraced, probes, size)
    return metrics, checker


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="run length; required unless --fast")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fast", action="store_true", help="every workload once, tiny inputs, all checks")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mpfsim" / "cli.py").is_file():
        print(f"error: no mpfsim sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        if args.fast:
            attempted = failed = 0
            wall = 0.0
            for name in NAMES:
                metrics, checker = run(name, args.seed, 0.0, True, size="tiny")
                print("\n".join(checker.summary()))
                attempted, failed = attempted + checker.attempted, failed + checker.failed
                wall += metrics["trace.wall_s"]["value"]
            result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {"trace.wall_s": _metric(wall, "s")}}
        else:
            if args.workload not in NAMES:
                p.error(f"--workload must be one of {', '.join(NAMES)}")
            if args.seconds is None:
                p.error("--seconds is required")
            metrics, checker = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(checker.summary()))
            result = {"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
