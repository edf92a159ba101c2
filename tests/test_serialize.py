import numpy as np
import pytest

from mpfsim.mpf import build_closedform, build_matching, cw_coefficients
from mpfsim.optimize import OptimizerConfig, optimize_mpf
from mpfsim.serialize import (
    load_mpf_spec,
    read_experiment_config,
    save_mpf_spec,
    save_optim_result,
)


def distinct_b(length, rng, box=4.0, min_sep=0.3):
    while True:
        b = rng.uniform(-box, box, length)
        sep = np.abs(np.subtract.outer(b, b))[~np.eye(length, dtype=bool)]
        if np.min(sep) > min_sep:
            return b


def test_cw_roundtrip(tmp_path):
    spec = cw_coefficients(1, 2)
    path = tmp_path / "cw.mpf"
    save_mpf_spec(spec, path)
    loaded = load_mpf_spec(path)
    assert loaded.chi == 1 and loaded.K == 2
    assert np.allclose(loaded.C, spec.C)
    assert loaded.resolution == pytest.approx(spec.resolution, abs=1e-12)


def test_matching_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    spec = build_matching(1, 2, [distinct_b(5, rng) for _ in range(2)])
    path = tmp_path / "m.mpf"
    save_mpf_spec(spec, path)
    loaded = load_mpf_spec(path)
    assert loaded.R == 2
    for a, b in zip(loaded.blocks, spec.blocks):
        assert np.allclose(a.b, b.b)
        assert np.allclose(a.C, b.C, atol=1e-12)


def test_closedform_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    spec = build_closedform(1, 2, [distinct_b(5, rng) for _ in range(3)])
    path = tmp_path / "cf.mpf"
    save_mpf_spec(spec, path)
    loaded = load_mpf_spec(path)
    assert np.allclose(loaded.blocks[0].b, spec.blocks[0].b)
    assert loaded.resolution == pytest.approx(spec.resolution, abs=1e-12)


def test_load_rejects_stale_resolution(tmp_path):
    spec = cw_coefficients(1, 1)
    path = tmp_path / "stale.mpf"
    save_mpf_spec(spec, path)
    lines = [
        "xi = 2.5" if line.startswith("xi = ") else line
        for line in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="stale"):
        load_mpf_spec(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.mpf"
    path.write_text("kind = nonsense\nchi = 1\n")
    with pytest.raises(ValueError):
        load_mpf_spec(path)
    path.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        load_mpf_spec(path)


def test_optim_result_file(tmp_path):
    cfg = OptimizerConfig(hops=2, seed=5, max_local_iters=200)
    result = optimize_mpf("matching", 1, 2, cfg)
    path = tmp_path / "opt.txt"
    save_optim_result(result, path)
    text = path.read_text()
    assert "xi =" in text and "zeta =" in text and "history =" in text
    assert f"seed = {cfg.seed}" in text


def test_experiment_config_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
[experiment]
methods = ts,cw
chi = 2
reps = 3
tau_points = 12

[model]
name = syk
syk_n = 8
seed = 3

[output]
csv = out.csv
"""
    )
    sections = read_experiment_config(path)
    assert sections["experiment"]["methods"] == "ts,cw"
    assert sections["model"]["name"] == "syk"
    assert sections["output"]["csv"] == "out.csv"
    with pytest.raises(ValueError, match="not found"):
        read_experiment_config(tmp_path / "missing.cfg")
