"""The benchmark's workloads: the `mpfsim` command lines each round runs.

A workload is a list of CLI commands built from the run's seed and an output
directory.  Every round of a run repeats the same commands with the same
inputs.  ``size="tiny"`` gives the same commands on small inputs, for the
fast self-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

NAMES = ("distance-syk", "distance-ff200", "optimize", "sample-syk-cf")

# Inputs per size.  Full sizes keep the models, orders and methods of the
# paper-scale runs but shorten the tau grid and the hop budget so that one
# round takes a few seconds.
SIZES = {
    "full": {
        "syk_n": 10,
        "ff_n": 200,
        "chi": 2,
        "reps": 3,
        "tau_points": 8,
        "hops": 2,
        "observable": "ZIIII",
        "epsilon": 0.05,
    },
    "tiny": {
        "syk_n": 6,
        "ff_n": 8,
        "chi": 1,
        "reps": 2,
        "tau_points": 4,
        "hops": 1,
        "observable": "ZII",
        "epsilon": 0.3,
    },
}

OPTIMIZE_SEARCH_SEED = 0
SAMPLE_TAU = 1.0
SAMPLE_DELTA = 0.05


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``outputs`` names the files it writes."""

    key: str
    argv: tuple[str, ...]
    outputs: dict


def commands(workload: str, seed: int, out_dir: Path, size: str = "full") -> list[Command]:
    """The CLI commands of one round of ``workload``."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    z = SIZES[size]
    out_dir = Path(out_dir)
    order = ["--chi", str(z["chi"])]
    if workload.startswith("distance-"):
        if workload == "distance-syk":
            model = ["--model", "syk", "--syk-n", str(z["syk_n"]), "--model-seed", str(seed)]
        else:
            model = ["--model", "free_fermion", "--n", str(z["ff_n"])]
        csv = out_dir / "distance.csv"
        argv = ["distance", *model, *order, "--reps", str(z["reps"]),
                "--methods", "ts,cw,matching,cf", "--tau-points", str(z["tau_points"]),
                "--csv", str(csv)]
        return [Command("distance", tuple(argv), {"csv": csv})]
    if workload == "optimize":
        out = []
        for kind in ("cf", "matching"):
            spec, result = out_dir / f"{kind}.spec", out_dir / f"{kind}.result"
            argv = ["optimize", "--kind", kind, *order, "--R", str(z["reps"]),
                    "--hops", str(z["hops"]), "--seed", str(OPTIMIZE_SEARCH_SEED),
                    "--out-spec", str(spec), "--out-result", str(result)]
            out.append(Command(kind, tuple(argv), {"spec": spec, "result": result}))
        return out
    argv = ["sample", "--model", "syk", "--syk-n", str(z["syk_n"]), "--model-seed", str(seed),
            "--observable", z["observable"], "--kind", "cf", *order, "--R", str(z["reps"]),
            "--tau", repr(SAMPLE_TAU), "--epsilon", repr(z["epsilon"]),
            "--delta", repr(SAMPLE_DELTA), "--seed", str(seed)]
    return [Command("sample", tuple(argv), {})]
