import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mpfsim
import mpfsim.ensembles
import mpfsim.mpf
import mpfsim.sampling
from mpfsim.cli import _hamiltonian, build_parser, main
from mpfsim.ensembles import matrices_per_batch
from mpfsim.sampling import ShotRecord
from mpfsim.serialize import format_vector, load_mpf_spec
from platforms import cpu_features, openblas_core


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_cw_golden(capsys, tmp_path):
    out_file = tmp_path / "cw.mpf"
    code, out, _ = run(capsys, "coeffs", "--kind", "cw", "--chi", "1", "--K", "2", "--out", str(out_file))
    assert code == 0
    assert "3.1333333333333333" in out
    assert out_file.exists()


def test_coeffs_cw_k1(capsys):
    code, out, _ = run(capsys, "coeffs", "--kind", "cw", "--chi", "1", "--K", "1")
    assert code == 0
    assert "1.666666666666666" in out


def test_coeffs_matching_prints_blocks(capsys):
    code, out, _ = run(capsys, "coeffs", "--kind", "matching", "--chi", "1", "--R", "2")
    assert code == 0
    assert "cond" in out and "Xi =" in out


@pytest.mark.parametrize("kind, first", [("matching", 1), ("cf", 0)])
def test_coeffs_block_labels_are_the_spec_file_numbers(capsys, tmp_path, kind, first):
    # at R = 1 a cf formula still writes and reads its shift block b0, which enters no branch
    for R in (1, 2):
        numbers = [str(i) for i in range(first, R + 1)]
        spec_file = tmp_path / f"{kind}-{R}.mpf"
        code, out, _ = run(capsys, "coeffs", "--kind", kind, "--chi", "1", "--R", str(R), "--out", str(spec_file))
        assert code == 0
        assert re.findall(r"^block (\d+):", out, re.M) == numbers
        text = spec_file.read_text()
        assert re.findall(r"^b(\d+) =", text, re.M) == numbers
        stored = dict(line.split(" = ", 1) for line in text.splitlines())
        loaded = [(format_vector(blk.b), format_vector(blk.C), format_vector(blk.nu)) for blk in load_mpf_spec(spec_file).blocks]
        assert loaded == [(stored[f"b{i}"], stored[f"c{i}"], stored[f"nu{i}"]) for i in numbers]


def test_coeffs_b_file(capsys, tmp_path):
    b_file = tmp_path / "nodes.txt"
    b_file.write_text("1 -1 2 -2 3\n" * 3)
    args = ["coeffs", "--kind", "cf", "--chi", "1", "--R", "2"]
    assert run(capsys, *args, "--out", str(tmp_path / "default.mpf"))[0] == 0
    assert run(capsys, *args, "--b-file", str(b_file), "--out", str(tmp_path / "b_file.mpf"))[0] == 0
    assert (tmp_path / "b_file.mpf").read_bytes() == (tmp_path / "default.mpf").read_bytes()
    code, _, err = run(capsys, "coeffs", "--kind", "cw", "--chi", "1", "--b-file", str(b_file))
    assert code == 2
    assert "--b-file" in err


@pytest.mark.parametrize("entry", ["inf", "nan", "-inf"])
def test_coeffs_b_file_rejects_a_non_finite_entry(capfd, tmp_path, entry):
    b_file = tmp_path / "nodes.txt"
    b_file.write_text(f"1 -1 2 -2 3\n# a comment\n1 -1 {entry} -2 3\n1 -1 2 -2 3\n")
    code = main(["coeffs", "--kind", "cf", "--chi", "1", "--R", "2", "--b-file", str(b_file)])
    out, err = capfd.readouterr()  # file-descriptor level, where LAPACK and numpy warnings write
    assert code == 2
    assert out == ""
    assert err == f"error: {b_file}, line 3: node entries must be finite\n"


def test_matching_solve_failure_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(mpfsim.mpf, "MATCHING_MAX_ITERATIONS", 1)
    monkeypatch.setattr(mpfsim.mpf, "MATCHING_RESIDUAL_TARGET", 1e-300)
    mpfsim.mpf.matching_nu.cache_clear()
    code, _, err = run(capsys, "coeffs", "--kind", "matching", "--chi", "1", "--R", "4")
    assert code == 3
    assert "hint: the closed-form kind (--kind cf) always has coefficients" in err


def test_failed_shot_check_exit_3(capsys, monkeypatch):
    single = mpfsim.sampling.single_shot

    def flipped(sampler, rng):
        rec = single(sampler, rng)
        return ShotRecord(outcome=rec.outcome, sign_product=-rec.sign_product)

    monkeypatch.setattr(mpfsim.sampling, "single_shot", flipped)
    code, _, err = run(capsys, "sample")
    assert code == 3
    assert err.startswith("error: batched shot (seed=0, stream=0, j=0) differs from single_shot")


def test_failed_leaf_check_exit_3(capsys, monkeypatch):
    single = mpfsim.ensembles.schedule_matrix

    def one_ulp_off(s, H, t):
        out = single(s, H, t).copy()
        out.real[0, 0] = np.nextafter(out.real[0, 0], np.inf)
        return out

    monkeypatch.setattr(mpfsim.ensembles, "schedule_matrix", one_ulp_off)
    code, _, err = run(capsys, "sample")
    assert code == 3
    assert re.match(r"error: .*scale .* differs", err)


def test_malformed_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--kind", "bogus", "--chi", "1"])
    assert exc.value.code == 2


def test_unknown_method_exit_2(capsys):
    code, _, err = run(capsys, "bounds", "--methods", "nonsense")
    assert code == 2
    assert "unknown method" in err


def test_bounds_csv_schema_and_determinism(capsys, tmp_path):
    args = [
        "bounds", "--methods", "ts,cw", "--chi", "2", "--reps", "3",
        "--tau-min", "0.01", "--tau-max", "1.0", "--tau-points", "5",
    ]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--csv", str(f1))[0] == 0
    assert run(capsys, *args, "--csv", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().splitlines()
    assert lines[0] == "tau,method,value,kind"
    assert len(lines) == 1 + 2 * 5
    for line in lines[1:]:
        tau, method, value, kind = line.split(",")
        assert method in ("ts", "cw")
        assert kind == "bound"
        float(tau), float(value)


def test_bounds_svg(capsys, tmp_path):
    svg = tmp_path / "plot.svg"
    code, _, _ = run(
        capsys, "bounds", "--methods", "ts,cw,matching,cf", "--chi", "1", "--reps", "2",
        "--tau-points", "8", "--svg", str(svg),
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_distance_toy_within_bounds(capsys, tmp_path):
    csv = tmp_path / "d.csv"
    code, out, _ = run(
        capsys, "distance", "--model", "toy", "--methods", "ts,cw,matching",
        "--chi", "1", "--reps", "2", "--tau-min", "0.01", "--tau-max", "2.0",
        "--tau-points", "6", "--csv", str(csv),
    )
    assert code == 0
    assert "all distances within bounds" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "tau,method,value,kind"
    kinds = {line.split(",")[3] for line in lines[1:]}
    assert kinds == {"distance", "bound"}
    # every emitted (distance, bound) pair satisfies distance <= bound (+floor)
    rows = [line.split(",") for line in lines[1:]]
    by_key = {}
    for tau, method, value, kind in rows:
        by_key.setdefault((tau, method), {})[kind] = float(value)
    for pair in by_key.values():
        assert pair["distance"] <= pair["bound"] + 1e-12


def test_distance_config_file(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    csv = tmp_path / "out.csv"
    cfg.write_text(
        f"""
[experiment]
methods = ts
chi = 1
reps = 2
tau_min = 0.05
tau_max = 0.5
tau_points = 4

[model]
name = heisenberg
n = 2

[output]
csv = {csv}
"""
    )
    code, _, _ = run(capsys, "distance", "--config", str(cfg))
    assert code == 0
    assert csv.exists()
    assert len(csv.read_text().splitlines()) == 1 + 2 * 4


# The zoo models of tests/test_schedules.py by their model flags, with the
# tau grids each runs: 8 points everywhere, 60 where that is cheap.  Hubbard
# (d = 256) runs at chi = 1, a third of its chi = 2 time.
ZOO_FLAGS = {
    "heisenberg4": (("--model", "heisenberg", "--n", "4"), (8, 60)),
    "anticommuting": (("--model", "anticommuting"), (8,)),
    "syk8": (("--model", "syk", "--syk-n", "8", "--model-seed", "3"), (8,)),
    "hubbard": (("--model", "hubbard", "--chi", "1", "--reps", "2"), (8,)),
    "free_fermion8": (("--model", "free_fermion", "--n", "8"), (8, 60)),
    "free_fermion7": (("--model", "free_fermion", "--n", "7"), (8, 60)),
}


def budget_for(flags, points_per_chunk):
    """A ``BATCH_BYTES`` that puts ``points_per_chunk`` tau points in a chunk of the model ``flags`` select."""
    H = _hamiltonian(build_parser().parse_args(["distance", *flags]))
    return points_per_chunk * 16 * H.dim**2


def test_default_budget_chunks_of_the_benchmark_models():
    """SYK(10) is per-step-overhead bound and must stay one chunk; d = 200 and 256 fill the budget with one point."""
    assert matrices_per_batch(32) == 64
    assert matrices_per_batch(200) == matrices_per_batch(256) == 1


@pytest.mark.parametrize(
    "model,points", [(model, points) for model, (_, grids) in ZOO_FLAGS.items() for points in grids]
)
def test_distance_is_bitwise_the_same_in_every_chunking(capsys, monkeypatch, tmp_path, model, points):
    """One-point chunks, chunks of three (the last one short) and one chunk write the same bytes."""
    flags = ZOO_FLAGS[model][0]
    csv = tmp_path / "d.csv"
    outputs = []
    for budget in (1, budget_for(flags, 3), budget_for(flags, points)):
        monkeypatch.setattr(mpfsim.ensembles, "BATCH_BYTES", budget)
        code, out, _ = run(capsys, "distance", *flags, "--tau-points", str(points), "--csv", str(csv))
        assert code == 0
        outputs.append((out, csv.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def test_slope_is_bitwise_the_same_in_every_chunking(capsys, monkeypatch):
    outputs = []
    for budget in (1, 1 << 62):
        monkeypatch.setattr(mpfsim.ensembles, "BATCH_BYTES", budget)
        code, out, _ = run(capsys, "slope", "--method", "cf", "--model", "heisenberg", "--n", "4")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_distance_peak_memory_is_flat_in_the_grid_length(capsys):
    """free_fermion(200) has d = 200, so a chunk holds one tau point.

    Held at once, the whole 60-point grid took about 7x the 8-point peak.
    """

    def peak(points):
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "distance", "--model", "free_fermion", "--n", "200", "--tau-points", str(points))
            assert code == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(60) <= 1.25 * peak(8)


# The running OpenBLAS kernel, then whether the distance CSV of one-point
# chunks equals the one-chunk CSV by bytes; run in a fresh process under the
# given platform setting.
_CHUNKED_EQUALS_ONE_CHUNK = r"""
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path[:0] = sys.argv[1:3]
import mpfsim.ensembles
from mpfsim.cli import main
from platforms import cpu_features, openblas_core

still_on = [f for f in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() if cpu_features().get(f)]
if still_on:
    raise SystemExit(f"features not disabled: {still_on}")
print(openblas_core())
verdict = "ok"
with tempfile.TemporaryDirectory() as tmp:
    for flags in (["--model", "heisenberg", "--n", "4"], ["--model", "free_fermion", "--n", "7"]):
        csvs = []
        for budget in (1, 1 << 62):
            mpfsim.ensembles.BATCH_BYTES = budget
            csv = Path(tmp) / f"{budget}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["distance", *flags, *sys.argv[3:], "--tau-points", "8", "--csv", str(csv)])
            if code != 0:
                raise SystemExit(f"{flags}: exit {code}")
            csvs.append(csv.read_bytes())
        if csvs[0] != csvs[1]:
            verdict = f"{flags[1]}: chunked CSV differs from one chunk"
print(verdict)
"""


@pytest.mark.parametrize(
    "name,value",
    [
        ("OPENBLAS_CORETYPE", "Prescott"),
        ("OPENBLAS_CORETYPE", "Haswell"),
        ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),
    ],
)
def test_distance_chunks_are_bitwise_under_emulated_platforms(name, value):
    default_core = openblas_core()
    if name == "OPENBLAS_CORETYPE" and default_core is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    missing = [f for f in value.split() if not cpu_features().get(f)]
    if name == "NPY_DISABLE_CPU_FEATURES" and missing:
        pytest.skip(f"numpy found no {missing} on this machine")
    # Haswell rejects the default matching weights at chi 2, R 3: see the next test
    methods = ["--methods", "ts,cw,cf"] if value == "Haswell" else []
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CHUNKED_EQUALS_ONE_CHUNK, str(root / "src"), str(root / "tests"), *methods],
        env={**os.environ, name: value}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    core, verdict = proc.stdout.split("\n", 1)
    if name == "OPENBLAS_CORETYPE" and core == default_core:
        pytest.skip(f"{name}={value} selects no other kernel than {core} here")
    assert verdict.strip() == "ok"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the Haswell kernel moves the default matching weights at chi 2, R 3 to residual 1.117e-09, "
    "just above the 1e-09 gate (ROADMAP items 13 and 6)",
)
def test_default_matching_weights_solve_under_haswell():
    default_core = openblas_core()
    if default_core is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    root = Path(__file__).resolve().parents[1]
    probe = "import sys; sys.path[:0] = sys.argv[1:]; from platforms import openblas_core; print(openblas_core())"
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    forced = subprocess.run(
        [sys.executable, "-c", probe, str(root / "tests")], env=env, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    if forced == default_core:
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell selects no other kernel than {forced} here")
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "mpfsim.cli", "coeffs", "--kind", "matching", "--chi", "2", "--R", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0 and "residual" not in proc.stderr:
        pytest.fail(f"exit {proc.returncode}, not from the residual gate: {proc.stderr[-2000:]}")
    assert proc.returncode == 0, proc.stderr


def test_sample_runs_and_reports(capsys):
    code, out, _ = run(
        capsys, "sample", "--model", "toy", "--observable", "Z", "--kind", "cw",
        "--chi", "1", "--K", "1", "--tau", "0.1", "--epsilon", "0.2",
        "--delta", "0.1", "--seed", "3",
    )
    assert code == 0
    assert "estimate" in out and "reference" in out and "Xi = 1.666666666666666" in out


def test_sample_shot_plan_value(capsys):
    # ceil(8 ln(40) (Xi/eps)^2) at Xi = 5/3: 8197.51 rounds up to 8198
    code, out, _ = run(
        capsys, "sample", "--model", "toy", "--observable", "Z", "--kind", "cw",
        "--chi", "1", "--K", "1", "--tau", "0.1", "--epsilon", "0.1",
        "--delta", "0.05", "--seed", "1",
    )
    assert code == 0
    assert "N = 8198" in out


def test_optimize_config_file(capsys, tmp_path):
    cfg = tmp_path / "opt.cfg"
    cfg.write_text("[optimize]\nkind = matching\nchi = 1\nr = 2\nhops = 1\nseed = 3\n")
    code, out, _ = run(capsys, "optimize", "--config", str(cfg))
    assert code == 0
    assert "kind = matching" in out and "hops = 1" in out


def test_sample_seeded_rerun_identical(capsys):
    args = [
        "sample", "--model", "toy", "--observable", "Z", "--kind", "cw", "--chi", "1",
        "--K", "1", "--tau", "0.1", "--epsilon", "0.25", "--delta", "0.2", "--seed", "11",
    ]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_sample_seed_beyond_128_bits_exit_2(capsys):
    code, _, err = run(
        capsys, "sample", "--model", "toy", "--observable", "Z", "--kind", "cw",
        "--chi", "1", "--K", "1", "--tau", "0.1", "--epsilon", "0.3", "--delta", "0.2",
        "--seed", str(2**128 + 5),
    )
    assert code == 2
    assert "seed" in err


def test_sample_rescale_notice(capsys):
    code, out, _ = run(
        capsys, "sample", "--model", "toy", "--observable", "Z", "--kind", "cw",
        "--chi", "1", "--K", "1", "--tau", "0.1", "--epsilon", "0.3", "--delta", "0.2",
        "--seed", "0", "--mpf-file", "/nonexistent/x.mpf",
    )
    assert code == 2  # missing file is a usage/config error


def test_optimize_single_hop(capsys, tmp_path):
    spec_file = tmp_path / "m.mpf"
    code, out, _ = run(
        capsys, "optimize", "--kind", "matching", "--chi", "1", "--R", "2",
        "--hops", "1", "--seed", "0", "--out-spec", str(spec_file),
    )
    assert code == 0
    assert "Xi" in out and np.isfinite(float(out.split("Xi            = ")[1].splitlines()[0]))
    assert spec_file.exists()


def test_optimize_cf_default_loss(capsys, tmp_path):
    args = ["optimize", "--kind", "cf", "--chi", "1", "--R", "2", "--hops", "1", "--seed", "0"]
    default_file, explicit_file = tmp_path / "default.result", tmp_path / "explicit.result"
    code, out, _ = run(capsys, *args, "--out-result", str(default_file))
    assert code == 0
    assert "loss = bound_times_xi_pow" in out
    assert "loss_kind = bound_times_xi_pow" in default_file.read_text().splitlines()
    code, out, _ = run(capsys, *args, "--loss", "xi_pow", "--out-result", str(explicit_file))
    assert code == 0
    assert "loss_kind = xi_pow" in explicit_file.read_text().splitlines()


@pytest.mark.parametrize("kind", ["cw", "cf"])
def test_spec_file_of_wrong_kind_exit_2(capsys, tmp_path, kind):
    spec_file = tmp_path / f"{kind}.spec"
    assert run(capsys, "coeffs", "--kind", kind, "--chi", "2", "--K", "2", "--R", "3", "--out", str(spec_file))[0] == 0
    code, _, err = run(
        capsys, "bounds", "--methods", "matching", "--matching-file", str(spec_file),
        "--csv", str(tmp_path / "bounds.csv"),
    )
    assert code == 2
    assert f"holds a {kind} spec, not matching" in err
    assert not (tmp_path / "bounds.csv").exists()


def test_slope_s2_toy(capsys):
    code, out, _ = run(
        capsys, "slope", "--method", "ts", "--chi", "1", "--model", "toy", "--tol", "0.15",
    )
    assert code == 0
    assert "within tolerance" in out


def test_slope_insufficient_window_exit_3(capsys):
    code, out, _ = run(
        capsys, "slope", "--method", "ts", "--chi", "1", "--model", "toy",
        "--t-min", "20.0", "--t-max", "30.0",
    )
    assert code == 3
    assert "slope fit failed" in out


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_141_quietly(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(mpfsim.__file__).parents[1]), env.get("PYTHONPATH", "")])
    argv = [sys.executable, *([] if buffered else ["-u"]), "-m", "mpfsim.cli", "bounds", "--tau-points", "5"]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--methods", "ts", "--tau-points", "2"],
        ["distance", "--methods", "ts", "--tau-points", "2"],
        ["optimize", "--hops", "1", "--chi", "1", "--R", "1"],
    ],
    ids=["bounds", "distance", "optimize"],
)
def test_readme_config_example_runs(capsys, tmp_path, monkeypatch, argv):
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "example.cfg").write_text(block)
    monkeypatch.chdir(tmp_path)  # the example writes out.csv and out.svg
    code, _, err = run(capsys, argv[0], "--config", "example.cfg", *argv[1:])
    assert code == 0, err


def test_explicit_flag_beats_renamed_config_key(capsys, tmp_path):
    cfg = tmp_path / "opt.cfg"
    spec_file = tmp_path / "m.mpf"
    cfg.write_text(f"[optimize]\nkind = matching\nchi = 1\nr = 2\nhops = 1\nout_spec = {spec_file}\n")
    code, out, _ = run(capsys, "optimize", "--config", str(cfg), "--R", "3")
    assert code == 0
    assert "R = 3" in out
    assert "R = 3" in spec_file.read_text().splitlines()


def _distance_config(tmp_path, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[experiment]\nmethods = ts\nchi = 1\nreps = 2\ntau_points = 3\n\n[model]\nname = toy\n" + text)
    return str(cfg)


def test_distance_ignores_optimize_section(capsys, tmp_path):
    cfg = _distance_config(tmp_path, "\n[optimize]\nchi = 2\n")
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert run(capsys, "distance", "--config", cfg, "--csv", str(from_file))[0] == 0
    flags = ["--methods", "ts", "--chi", "1", "--reps", "2", "--tau-points", "3", "--model", "toy"]
    assert run(capsys, "distance", *flags, "--csv", str(from_flags))[0] == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_abbreviated_flag_beats_config(capsys, tmp_path):
    csv = tmp_path / "d.csv"
    code, _, _ = run(capsys, "distance", "--config", _distance_config(tmp_path, ""), "--tau-p", "2", "--csv", str(csv))
    assert code == 0
    assert len(csv.read_text().splitlines()) == 1 + 2 * 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("[experiment]\nbogus = 1\n", "[experiment] bogus names no mpfsim bounds flag"),
        ("[experiment\nchi = 1\n", "File contains no section headers"),
    ],
    ids=["unknown-key", "malformed"],
)
def test_bad_config_file_exit_2(capsys, tmp_path, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, _, err = run(capsys, "bounds", "--config", str(cfg))
    assert code == 2
    assert message in err


def test_config_value_is_cast_by_its_flag(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nchi = two\n")
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "argument --chi: invalid int value: 'two'" in capsys.readouterr().err


def test_second_config_file_exit_2(capsys, tmp_path):
    cfg = _distance_config(tmp_path, "")
    code, _, err = run(capsys, "distance", "--config", cfg, "--config", str(tmp_path / "other.cfg"))
    assert code == 2
    assert "give --config once" in err


def _fill_stored_vector(path, key, fill):
    """Overwrite every entry of the vector stored under ``key`` with ``fill``."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        k, v = line.split(" = ", 1)
        if k == key:
            lines[i] = f"{k} = {' '.join([fill] * len(v.split()))}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "kind, key, fill, argv",
    [
        ("cf", "c1", "7", ["bounds", "--methods", "cf", "--chi", "2", "--reps", "3", "--cf-file"]),
        ("cf", "nu2", "0", ["bounds", "--methods", "cf", "--chi", "2", "--reps", "3", "--cf-file"]),
        ("cw", "C", "9", ["sample", "--mpf-file"]),
    ],
)
def test_hand_edited_spec_file_exit_2(capsys, tmp_path, kind, key, fill, argv):
    spec_file = tmp_path / f"{kind}.spec"
    assert run(capsys, "coeffs", "--kind", kind, "--chi", "2", "--out", str(spec_file))[0] == 0
    load_mpf_spec(spec_file)
    _fill_stored_vector(spec_file, key, fill)
    with pytest.raises(ValueError, match=f"stored {key} disagrees"):
        load_mpf_spec(spec_file)
    code, _, err = run(capsys, *argv, str(spec_file))
    assert code == 2
    assert f"stored {key} disagrees" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--kind", "matching", "--chi", "1", "--R", "2", "--out"],
        ["optimize", "--kind", "matching", "--chi", "1", "--R", "2", "--hops", "1", "--out-spec"],
        ["optimize", "--kind", "cf", "--chi", "1", "--R", "2", "--hops", "1", "--out-spec"],
    ],
)
def test_written_spec_files_load(capsys, tmp_path, argv):
    # coeffs-written cw and cf files load in test_hand_edited_spec_file_exit_2
    spec_file = tmp_path / "written.spec"
    assert run(capsys, *argv, str(spec_file))[0] == 0
    assert load_mpf_spec(spec_file).kind == argv[2]


def test_spec_file_missing_key_exit_2(capsys, tmp_path):
    spec_file = tmp_path / "cf.spec"
    spec_file.write_text("kind = cf\nR = 2\n")
    code, _, err = run(capsys, "bounds", "--methods", "cf", "--cf-file", str(spec_file))
    assert code == 2
    assert "has no 'chi' key" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--kind", "cf", "--chi", "1", "--R", "0"],
        ["coeffs", "--kind", "cf", "--chi", "1", "--R", "-1"],
        ["coeffs", "--kind", "cf", "--chi", "0"],
        ["bounds", "--methods", "ts", "--reps", "0", "--tau-points", "2"],
    ],
    ids=["cf-R0", "cf-R-1", "cf-chi0", "ts-reps0"],
)
def test_order_below_one_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "need" in err and ">= 1" in err
    assert out == ""
