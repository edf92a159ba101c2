"""The benchmark's fast self-check, run as part of the test suite.

``perfbench/run.py --fast`` runs every workload on tiny inputs, traced and
untraced, and checks every output.  Tracing wraps library functions by
module and name, so renaming or moving one of them fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_fast_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--fast"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


# Wraps every WRAP_POINTS entry with its own call counter, then runs each
# workload's tiny commands through mpfsim.cli.main in this process.
_COUNT_WRAP_POINT_CALLS = r"""
import json
import sys
import tempfile
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import mpfsim.cli
import spans
from workloads import NAMES, commands

calls = {}


def counter(key):
    def make(original):
        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return counted

    return make


for module, attr, *_ in spans.WRAP_POINTS:
    key = f"{module}.{attr}"
    calls[key] = 0
    spans.replace(module, attr, counter(key))
with tempfile.TemporaryDirectory() as out:
    for workload in NAMES:
        for cmd in commands(workload, 0, Path(out), size="tiny"):
            if mpfsim.cli.main(list(cmd.argv)) != 0:
                raise SystemExit(f"{workload} {cmd.key} failed")
print(json.dumps(calls))
"""


def test_every_wrap_point_is_called():
    """A wrap point its caller no longer calls would read 0 in the benchmark without failing it."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_WRAP_POINT_CALLS, str(ROOT)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    calls = json.loads(proc.stdout.strip().splitlines()[-1])
    assert calls
    assert [key for key, n in calls.items() if n == 0] == []
