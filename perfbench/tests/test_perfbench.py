"""The benchmark's own tests: its checks accept mpfsim's real outputs and
reject wrong ones.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEED = 3


def failed(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


@pytest.fixture(scope="module")
def rounds():
    """One untraced tiny round per workload, shared by the tests below."""
    return {name: run.run_round(name, SEED, "tiny", False) for name in ("distance-syk", "optimize", "sample-syk-cf")}


def test_fast_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--fast", "--seed", str(SEED)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 50


def test_exits_nonzero_without_a_result_when_only_the_benchmark_is_present():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "optimize", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_setup_probe_ignores_mpfsim_threads_and_seconds_is_required(monkeypatch):
    monkeypatch.setenv("MPFSIM_THREADS", "2")
    report = run._worker("optimize", SEED, "tiny", False, "--setup-only")
    assert set(report) == {"setup_s"} and 0 < report["setup_s"] < 30
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "optimize", "--seed", "0",
                           "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "--seconds is required" in proc.stderr


def test_traced_spans_nest_even_when_mpfsim_threads_is_set(monkeypatch):
    """The worker drops MPFSIM_THREADS, so schedule builds stay on the one
    thread the tracer's span stack assumes: each build is a child of its
    cache lookup, siblings follow one another and every span lies inside
    its parent.  With a thread pool the builds would bypass the lookup."""
    monkeypatch.setenv("MPFSIM_THREADS", "2")
    report = run.run_round("distance-ff200", SEED, "tiny", True)
    assert report["commands"][0]["rc"] == 0
    rows = (HERE / "out" / "distance-ff200" / "spans.csv").read_text().splitlines()[1:]
    spans_by_id = {}
    for row in rows:
        i, parent, name, start, end, _ = row.split(",", 5)
        spans_by_id[int(i)] = (int(parent), name, int(start), int(end))
    grid_parents = [spans_by_id[parent][1] for parent, name, _, _ in spans_by_id.values()
                    if name == "schedules.grid_build"]
    assert len(grid_parents) > 1 and set(grid_parents) == {"sweep.cache"}
    last_end = {}
    for i, (parent, name, start, end) in sorted(spans_by_id.items()):
        if parent >= 0:
            _, _, p_start, p_end = spans_by_id[parent]
            assert p_start <= start <= end <= p_end, (i, name)
        assert start >= last_end.get(parent, 0), (i, name)
        last_end[parent] = end


def _distance_inputs(report):
    return report["commands"][0]["rc"], report["files"]["distance"]["csv"]


def test_distance_checks_reject_a_distance_off_by_1e6(rounds):
    ref = checks.DistanceReference("distance-syk", SEED, "tiny")
    rc, csv = _distance_inputs(rounds["distance-syk"])
    assert not failed(checks.distance_checks(rc, csv, ref))
    lines = csv.splitlines()
    tau = checks.parse_distance_csv(csv)["ts"][ref.indices[0]][0]
    for i, line in enumerate(lines):
        t, method, value, kind = line.split(",")
        if method == "ts" and kind == "distance" and float(t) == tau:
            lines[i] = f"{t},{method},{float(value) + 1e-6!r},{kind}"
    assert f"ts distance at tau={tau:.4g}" in failed(checks.distance_checks(rc, "\n".join(lines), ref))


def test_distance_checks_reject_a_bound_violation_and_a_failed_command(rounds):
    ref = checks.DistanceReference("distance-syk", SEED, "tiny")
    rc, csv = _distance_inputs(rounds["distance-syk"])
    lines = [
        ",".join([t, m, "0", k]) if m == "cf" and k == "bound" else line
        for line in csv.splitlines()
        for t, m, v, k in [line.split(",")]
    ]
    assert "cf distance <= bound + floor" in failed(checks.distance_checks(rc, "\n".join(lines), ref))
    assert failed(checks.distance_checks(3, csv, ref)) == ["exit code"]


def _optimize_inputs(report, kind):
    cmd = next(c for c in report["commands"] if c["key"] == kind)
    files = report["files"][kind]
    return kind, cmd["rc"], files["spec"], files["result"]


@pytest.mark.parametrize("kind", ["cf", "matching"])
def test_optimize_checks_reject_zeta_off_by_one_percent(rounds, kind):
    kind, rc, spec, result = _optimize_inputs(rounds["optimize"], kind)
    assert not failed(checks.optimize_checks(kind, rc, spec, result, "tiny"))
    zeta = float(checks.parse_kv(result)["zeta"])
    wrong = re.sub(r"^zeta = .*$", f"zeta = {zeta * 1.01!r}", result, flags=re.M)
    assert failed(checks.optimize_checks(kind, rc, spec, wrong, "tiny")) == [f"{kind} zeta = brute-force sum"]


def test_optimize_checks_reject_wrong_weights_and_nodes_outside_the_box(rounds):
    kind, rc, spec, result = _optimize_inputs(rounds["optimize"], "cf")
    kv = checks.parse_kv(spec)
    c = [float(x) for x in kv["c1"].split()]
    c[0] *= 1.0 + 1e-6
    wrong = spec.replace(f"c1 = {kv['c1']}", "c1 = " + " ".join(repr(x) for x in c))
    assert "cf scalar series = 1/k!" in failed(checks.optimize_checks(kind, rc, wrong, result, "tiny"))
    b = kv["b0"].split()
    outside = spec.replace(f"b0 = {kv['b0']}", "b0 = " + " ".join(["99.0"] + b[1:]))
    assert "cf nodes inside box" in failed(checks.optimize_checks(kind, rc, outside, result, "tiny"))


def _sample_with(stdout: str, key: str, value: float) -> str:
    return re.sub(rf"^({key}\s*=\s*)\S+", lambda m: f"{m.group(1)}{value!r}", stdout, count=1, flags=re.M)


def test_sample_checks_reject_an_estimate_outside_its_interval(rounds):
    ref = checks.SampleReference(SEED, "tiny")
    cmd = rounds["sample-syk-cf"]["commands"][0]
    assert not failed(checks.sample_checks(cmd["rc"], cmd["stdout"], ref))
    n = checks.parse_sample(cmd["stdout"])["N"]
    half = ref.xi**2 * math.sqrt(2.0 * math.log(2.0 / checks.HOEFFDING_FAILURE) / n)
    wrong = _sample_with(cmd["stdout"], "estimate", ref.mixture + 1.01 * half)
    assert failed(checks.sample_checks(cmd["rc"], wrong, ref)) == ["estimate within Hoeffding interval"]
    inside = _sample_with(cmd["stdout"], "estimate", ref.mixture + 0.99 * half)
    assert not failed(checks.sample_checks(cmd["rc"], inside, ref))


def test_sample_checks_reject_wrong_reference_and_shot_count(rounds):
    ref = checks.SampleReference(SEED, "tiny")
    cmd = rounds["sample-syk-cf"]["commands"][0]
    v = checks.parse_sample(cmd["stdout"])
    wrong = _sample_with(cmd["stdout"], "reference", v["reference"] + 1e-8)
    assert failed(checks.sample_checks(cmd["rc"], wrong, ref)) == ["reference = expm value"]
    stdout = re.sub(r"N = \d+", f"N = {int(v['N']) + 1}", cmd["stdout"])
    assert "N = ceil(8 ln(2/delta) (Xi/eps)^2)" in failed(checks.sample_checks(cmd["rc"], stdout, ref))


def test_self_time_subtracts_the_union_of_child_intervals():
    # parent [0, 100] with children [10, 30] and [20, 50] (overlapping) and a
    # grandchild inside the first child.
    recorded = [
        ["cli", 0, 100, -1, None],
        ["a", 10, 30, 0, None],
        ["b", 20, 50, 0, None],
        ["c", 12, 18, 1, None],
    ]
    assert spans.self_times(recorded) == [60, 14, 30, 6]


def test_layer_metrics_count_work_and_ratios():
    recorded = [
        ["cli", 0, 1000, -1, None],
        ["optimize.search", 0, 900, 0, None],
        ["optimize.loss", 100, 200, 1, {"finite": True}],
        ["optimize.loss", 300, 400, 1, {"finite": False}],
        ["mpf.build", 110, 190, 2, None],
        ["mpf.solve", 120, 160, 4, None],
    ]
    m = spans.layer_metrics(recorded)
    assert m["optimize.loss_evals"] == 2
    assert m["optimize.loss_finite_ratio"] == 0.5
    assert m["mpf.solves"] == 1
    assert m["mpf.build_self_s"] == pytest.approx(40e-9)
    assert m["optimize.search_self_s"] == pytest.approx(700e-9)
    assert m["cli.self_s"] == pytest.approx(100e-9)
    assert m["trace.layer_share"] == pytest.approx(0.9)
