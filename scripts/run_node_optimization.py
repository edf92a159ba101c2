#!/usr/bin/env python3
"""Optimize the node vectors of both new formula kinds at 2 chi = 4, R = 3.

Runs ``mpfsim optimize`` once per kind and writes the optimized specs and
optimizer traces under results/ so the bound and distance scripts can pick
them up.  Further arguments go to the subcommand, e.g. --seed / --hops to
override the pinned defaults.
"""

import sys
from pathlib import Path

from mpfsim.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"
RESULTS.mkdir(exist_ok=True)

worst = 0
for kind in ("matching", "cf"):
    args = [
        "optimize",
        "--kind", kind,
        "--chi", "2",
        "--R", "3",
        "--hops", "100",
        "--seed", "0",
        "--out-spec", str(RESULTS / f"optimized_{kind}.mpf"),
        "--out-result", str(RESULTS / f"optimized_{kind}.result"),
    ]
    worst = max(worst, main(args + sys.argv[1:]))
sys.exit(worst)
