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
