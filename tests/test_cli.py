import numpy as np
import pytest

from mpfsim.cli import main


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
