import math
from dataclasses import replace

import numpy as np
import pytest

import mpfsim.mpf
import mpfsim.optimize
from mpfsim.mpf import MatchingSolveError
from mpfsim.optimize import (
    OptimizerConfig,
    basin_hop,
    default_initial_b,
    loss,
    nelder_mead,
    optimize_mpf,
    spec_from_b,
)


def test_default_initial_b_patterns():
    (b,) = default_initial_b(1, 1, "matching")
    assert b.tolist() == [1.0, -1.0, 2.0]
    b = default_initial_b(1, 3, "matching")[0]
    assert b.tolist() == [1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0]
    blocks = default_initial_b(2, 3, "matching")
    assert len(blocks) == 3
    assert all(len(b) == 13 for b in blocks)
    assert blocks[0][-1] == 7.0
    assert len(default_initial_b(2, 3, "cf")) == 4  # shift block included


def test_loss_penalizes_degenerate_nodes():
    cfg = OptimizerConfig()
    b = default_initial_b(1, 2, "matching")
    b[0][1] = b[0][0]  # repeated entry
    assert loss(b, "matching", 1, 2, cfg) == math.inf


def test_loss_penalizes_out_of_box():
    cfg = OptimizerConfig(b_max=3.0)
    b = default_initial_b(1, 2, "matching")  # contains a 3 and the pattern max 3
    b[0][0] = 5.0
    assert loss(b, "matching", 1, 2, cfg) == math.inf


def test_loss_penalizes_non_finite_nodes():
    # NaN compares False against the box, so the box test must be a negated <=
    assert loss([np.full(13, np.nan)] * 4, "cf", 2, 3, OptimizerConfig()) == math.inf
    b = default_initial_b(1, 2, "matching")
    b[0][2] = np.nan
    assert loss(b, "matching", 1, 2, OptimizerConfig()) == math.inf
    b[0][2] = -np.inf
    assert loss(b, "matching", 1, 2, OptimizerConfig()) == math.inf


def test_loss_p_zero_bound_kind_is_pure_bound():
    from mpfsim.bounds import new_bound, zeta_matching

    cfg = OptimizerConfig(loss_kind="bound_times_xi_pow", p=0.0, tau_ref=0.2)
    b = default_initial_b(1, 2, "matching")
    spec = spec_from_b("matching", 1, 2, b)
    expected = new_bound(1, 2, zeta_matching(spec), 1.0, 0.2)
    assert loss(b, "matching", 1, 2, cfg) == pytest.approx(expected, rel=1e-12)


def test_loss_regression_anchor_default_b():
    # pinned pipeline value at the default nodes for chi=2, R=3
    cfg = OptimizerConfig()
    b = default_initial_b(2, 3, "matching")
    spec = spec_from_b("matching", 2, 3, b)
    assert spec.resolution == pytest.approx(35.82420726870855, rel=1e-9)
    assert loss(b, "matching", 2, 3, cfg) == pytest.approx(spec.resolution**20.0, rel=1e-9)


def test_nelder_mead_convex_bowl():
    cfg = OptimizerConfig(max_local_iters=2000, simplex_tol=1e-10)
    x, f = nelder_mead(lambda v: float(np.sum(v**2)), np.array([1.0, 1.0]), cfg)
    assert np.linalg.norm(x) < 1e-6
    assert f < 1e-12


def test_nelder_mead_plateau_terminates_by_cap():
    cfg = OptimizerConfig(max_local_iters=50, simplex_tol=1e-12)
    calls = {"n": 0}

    def plateau(v):
        calls["n"] += 1
        return 1.0

    x, f = nelder_mead(plateau, np.array([0.3, -0.2]), cfg)
    assert f == 1.0
    assert calls["n"] < 50 * 10  # bounded effort


def test_nelder_mead_rosenbrock():
    def rosen(v):
        return float((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)

    cfg = OptimizerConfig(max_local_iters=4000, simplex_tol=1e-12)
    x, f = nelder_mead(rosen, np.array([-1.2, 1.0]), cfg)
    assert f < 1e-6
    assert np.allclose(x, [1.0, 1.0], atol=1e-2)


def test_basin_hop_single_hop_is_local_search():
    cfg = OptimizerConfig(hops=1, seed=4)
    f = lambda v: float(np.sum(v**2))
    x_bh, f_bh, history = basin_hop(f, np.array([0.7, -0.4]), cfg)
    x_nm, f_nm = nelder_mead(f, np.array([0.7, -0.4]), cfg)
    assert f_bh == f_nm
    assert np.array_equal(x_bh, x_nm)
    assert history == (f_nm,)


def test_basin_hop_finds_global_basin_multimodal():
    def f(v):
        return float(np.sin(5 * v[0]) + 0.1 * v[0] ** 2)

    # dense-scan oracle for the global minimum
    grid = np.linspace(-4, 4, 200_001)
    oracle = np.min(np.sin(5 * grid) + 0.1 * grid**2)
    cfg = OptimizerConfig(hops=25, step_scale=1.0, seed=11)
    _, f_best, _ = basin_hop(f, np.array([2.5]), cfg)
    assert f_best <= oracle + 1e-6


def test_basin_hop_history_monotone():
    def f(v):
        return float(np.sin(5 * v[0]) + 0.1 * v[0] ** 2 + v[1] ** 2)

    cfg = OptimizerConfig(hops=15, seed=2)
    _, _, history = basin_hop(f, np.array([1.0, 0.5]), cfg)
    assert len(history) == 15
    assert all(b >= a for a, b in zip(history[1:], history))  # nonincreasing


def test_optimize_mpf_determinism():
    cfg = OptimizerConfig(hops=3, seed=123, max_local_iters=300)
    r1 = optimize_mpf("matching", 1, 2, cfg)
    r2 = optimize_mpf("matching", 1, 2, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(r1.b_list, r2.b_list))
    assert r1.Xi == r2.Xi and r1.loss_value == r2.loss_value


def test_optimize_mpf_box_respect_and_rebuild():
    cfg = OptimizerConfig(hops=4, seed=9, max_local_iters=400)
    result = optimize_mpf("matching", 1, 2, cfg)
    b_max = 1 * 2 + 1
    for b in result.b_list:
        assert np.all(np.abs(b) <= b_max + 1e-12)
    rebuilt = spec_from_b("matching", 1, 2, result.b_list)
    assert rebuilt.resolution == pytest.approx(result.Xi, abs=1e-10)


def test_optimize_mpf_trivial_single_block():
    cfg = OptimizerConfig(hops=1, seed=0, max_local_iters=200)
    result = optimize_mpf("matching", 1, 1, cfg)
    assert result.Xi == pytest.approx(1.0, abs=1e-9)


def test_optimize_mpf_raises_a_failed_matching_solve_from_its_first_loss(monkeypatch):
    # the failure is raised, not scored +inf, so the search never starts
    monkeypatch.setattr(mpfsim.mpf, "MATCHING_MAX_ITERATIONS", 1)
    monkeypatch.setattr(mpfsim.mpf, "MATCHING_RESIDUAL_TARGET", 1e-300)
    mpfsim.mpf.matching_nu.cache_clear()
    calls = []
    original = mpfsim.optimize.loss
    monkeypatch.setattr(mpfsim.optimize, "loss", lambda *args: calls.append(args) or original(*args))
    with pytest.raises(MatchingSolveError):
        optimize_mpf("matching", 1, 4, OptimizerConfig(hops=1))
    assert len(calls) == 1


def test_optimize_mpf_default_loss_per_kind():
    cfg = OptimizerConfig(hops=1, seed=0, max_local_iters=200)
    assert cfg.loss_kind is None
    cf = optimize_mpf("cf", 1, 2, cfg)
    assert cf.config.loss_kind == "bound_times_xi_pow"
    assert cf.loss_value == pytest.approx(cf.bound_at_tau_ref * cf.Xi**cf.config.p, rel=1e-12)
    matching = optimize_mpf("matching", 1, 2, cfg)
    assert matching.config.loss_kind == "xi_pow"
    assert matching.loss_value == pytest.approx(matching.Xi**matching.config.p, rel=1e-12)
    explicit = optimize_mpf("cf", 1, 2, replace(cfg, loss_kind="xi_pow"))
    assert explicit.config.loss_kind == "xi_pow"
    assert explicit.loss_value == pytest.approx(explicit.Xi**explicit.config.p, rel=1e-12)


def test_loss_unresolved_config_uses_kind_default():
    b = default_initial_b(1, 2, "cf")
    unresolved = loss(b, "cf", 1, 2, OptimizerConfig())
    assert unresolved == loss(b, "cf", 1, 2, OptimizerConfig(loss_kind="bound_times_xi_pow"))
    assert unresolved != loss(b, "cf", 1, 2, OptimizerConfig(loss_kind="xi_pow"))


def test_unset_p_resolves_per_kind():
    for kind, p in (("cf", 10.0), ("matching", 20.0)):
        b = default_initial_b(1, 2, kind)
        unset = OptimizerConfig(loss_kind="xi_pow")
        assert unset.p is None
        assert loss(b, kind, 1, 2, unset) == loss(b, kind, 1, 2, replace(unset, p=p))
        assert loss(b, kind, 1, 2, unset) != loss(b, kind, 1, 2, replace(unset, p=30.0 - p))
        result = optimize_mpf(kind, 1, 2, OptimizerConfig(hops=1, seed=1, max_local_iters=50))
        assert result.config.p == p


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(hops=0)
    with pytest.raises(ValueError):
        OptimizerConfig(loss_kind="nonsense")
    with pytest.raises(ValueError):
        OptimizerConfig(b_max=-1.0)


def _shared_block_candidates(kind, chi, R, count, seed):
    """Seeded node sets drawn from a small block pool, so blocks repeat across
    candidates; the pool holds a coincident-node block and a clustered one
    whose Vandermonde system is far too ill-conditioned to solve."""
    rng = np.random.default_rng(seed)
    m = 2 * chi * R + 1
    box = chi * R + 1
    pool = [rng.uniform(-box, box, m) for _ in range(10)]
    coincident = pool[0].copy()
    coincident[1] = coincident[0]
    pool += [coincident, 1.0 + 1e-4 * np.arange(m)]
    n_blocks = R if kind == "matching" else R + 1
    return [[pool[i] for i in rng.integers(len(pool), size=n_blocks)] for _ in range(count)]


@pytest.mark.parametrize("kind", ["matching", "cf"])
def test_loss_is_bitwise_equal_with_a_cold_and_a_warm_block_memo(kind):
    chi, R, cfg = 1, 2, OptimizerConfig()
    candidates = _shared_block_candidates(kind, chi, R, 200, seed=17)
    cold = []
    for b_list in candidates:
        mpfsim.mpf._solved_block.cache_clear()
        cold.append(loss(b_list, kind, chi, R, cfg))
    warm = [loss(b_list, kind, chi, R, cfg) for b_list in candidates]
    assert mpfsim.mpf._solved_block.cache_info().hits > 0
    assert any(math.isinf(v) for v in cold) and any(math.isfinite(v) for v in cold)
    assert [np.float64(v).tobytes() for v in warm] == [np.float64(v).tobytes() for v in cold]


@pytest.mark.parametrize("kind", ["matching", "cf"])
def test_search_solves_each_distinct_block_once(monkeypatch, kind):
    solves, builds, in_loss = [], [], []
    solve, build, objective = mpfsim.mpf.solve_vandermonde, mpfsim.mpf.build_lblock, loss

    def counted_solve(b, nu):
        if in_loss:
            solves.append((b.tobytes(), nu.tobytes()))
        return solve(b, nu)

    def counted_build(*args):
        builds.append(1)
        return build(*args)

    def counted_loss(*args):
        in_loss.append(True)
        try:
            return objective(*args)
        finally:
            in_loss.pop()

    monkeypatch.setattr(mpfsim.mpf, "solve_vandermonde", counted_solve)
    monkeypatch.setattr(mpfsim.mpf, "build_lblock", counted_build)
    monkeypatch.setattr(mpfsim.optimize, "loss", counted_loss)
    mpfsim.mpf._solved_block.cache_clear()
    optimize_mpf(kind, 1, 2, OptimizerConfig(hops=1))
    assert solves and len(set(solves)) == len(solves)
    assert len(builds) > len(solves)  # the other builds were memo hits
