"""One round of one workload, in a fresh interpreter.

Usage (from run.py): python3 perfbench/worker.py --workload NAME --seed N
    --out DIR --size full|tiny --trace 0|1 --t0-ns NS [--setup-only]

Runs the workload's commands through ``mpfsim.cli.main`` in this process and
prints one JSON line: set-up time (from the parent's ``--t0-ns``, taken just
before it started this process, to the first timed command), each command's
exit code, wall time and captured output, CPU time, peak RSS and work
counts.  With ``--trace 1`` every layer boundary is wrapped by
:class:`spans.Tracer`; the spans are written to ``DIR/spans.csv`` and
reduced to per-layer metrics.  With ``--setup-only`` it does the same
set-up, prints only the set-up time and runs no command.

``MPFSIM_THREADS`` is removed from the environment, so the schedule builds
run on the program's default of one thread whatever the caller set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpfsim.cli  # noqa: E402  (the program under test, from this checkout)

import spans as tracing  # noqa: E402
from workloads import commands  # noqa: E402


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    """High-water RSS of this process image (Linux ``VmHWM``).  ru_maxrss is
    not used: it would also count the parent's RSS at fork time, which Linux
    carries across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class _Counters:
    """Untraced instrumentation: a loss-evaluation counter and one timer
    around the estimator; neither adds work per shot or per evaluation
    beyond a counter increment."""

    def __init__(self):
        self.loss_evals = 0
        self.estimator_s = 0.0
        tracing.replace("mpfsim.optimize", "loss", self._count)
        tracing.replace("mpfsim.cli", "run_estimator", self._time)

    def _count(self, original):
        def counted(*args, **kwargs):
            self.loss_evals += 1
            return original(*args, **kwargs)

        return counted

    def _time(self, original):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.estimator_s += time.perf_counter() - start

        return timed


def _run(argv, tracer) -> tuple[int, str]:
    buf = io.StringIO()
    span = tracer.span("cli") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(buf):
        try:
            rc = mpfsim.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0-ns", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    os.environ.pop("MPFSIM_THREADS", None)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = commands(args.workload, args.seed, out_dir, args.size)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    else:
        counters = _Counters()

    setup_s = (_now_ns() - args.t0_ns) * 1e-9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    cpu0 = _cpu_s()
    results = []
    for cmd in cmds:
        start = time.perf_counter()
        rc, stdout = _run(cmd.argv, tracer)
        results.append({"key": cmd.key, "rc": rc, "wall_s": time.perf_counter() - start, "stdout": stdout})
    cpu_s = _cpu_s() - cpu0

    report = {
        "setup_s": setup_s,
        "commands": results,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer:
        tracer.write(out_dir / "spans.csv")
        report["layers"] = tracing.layer_metrics(tracer.spans)
    else:
        report["loss_evals"] = counters.loss_evals
        report["estimator_s"] = counters.estimator_s
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
