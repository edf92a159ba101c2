#!/usr/bin/env python3
"""Optimize the node vectors of both new formula kinds at 2 chi = 4, R = 3.

Writes the optimized specs and optimizer traces under results/ so the bound
and distance scripts can pick them up.  Pass --seed / --hops to override the
pinned defaults.
"""

import argparse
from pathlib import Path

from mpfsim.optimize import OptimizerConfig, optimize_mpf, spec_from_b
from mpfsim.serialize import save_mpf_spec, save_optim_result

RESULTS = Path(__file__).resolve().parent.parent / "results"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chi", type=int, default=2)
    parser.add_argument("--R", type=int, default=3)
    parser.add_argument("--hops", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    RESULTS.mkdir(exist_ok=True)
    config = OptimizerConfig(hops=args.hops, seed=args.seed)
    for kind in ("matching", "cf"):
        result = optimize_mpf(kind, args.chi, args.R, config)
        spec = spec_from_b(kind, args.chi, args.R, result.b_list)
        save_mpf_spec(spec, RESULTS / f"optimized_{kind}.mpf")
        save_optim_result(result, RESULTS / f"optimized_{kind}.result")
        print(f"{kind}: Xi = {result.Xi:.6f}, zeta = {result.zeta:.6e} -> results/optimized_{kind}.mpf")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
