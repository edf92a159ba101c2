import numpy as np
import pytest

import mpfsim.sweep
from mpfsim.bounds import Method
from mpfsim.cli import main
from mpfsim.models import anticommuting, free_fermion, heisenberg, syk
from mpfsim.mpf import cw_coefficients, mpf_matrices
from mpfsim.operators import (
    exact_evolutions,
    hamiltonian,
    lambda_norm,
    pauli_string,
    spectral_distance,
)
from mpfsim.optimize import default_initial_b, spec_from_b
from mpfsim.schedules import merge_adjacent, schedule_matrices, suzuki_schedule
from mpfsim.sweep import (
    SuzukiGridCache,
    distance_curve,
    fit_order_slope,
    method_matrices,
    ts_matrices,
)


@pytest.fixture(scope="module")
def toy():
    return hamiltonian([pauli_string("X"), pauli_string("Y")], label="toy")


def test_cache_reuses_builds(toy):
    ts = np.array([0.1, 0.2])
    cache = SuzukiGridCache(toy, 1, ts)
    a = cache(0.5)
    b = cache(0.5)
    assert a is b


def test_cache_rejects_order_below_one(toy):
    with pytest.raises(ValueError, match="chi must be >= 1"):
        SuzukiGridCache(toy, 0, np.array([0.1]))


@pytest.mark.parametrize("model", ["toy", "heisenberg4", "free_fermion8", "anticommuting"])
@pytest.mark.parametrize("chi", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 0.5, -1.0, -7.0])
def test_recursive_cache_matches_flat_schedule_build(toy, model, chi, scale):
    H = {
        "toy": toy,
        "heisenberg4": heisenberg(4),
        "free_fermion8": free_fermion(8)[1],
        "anticommuting": anticommuting(),
    }[model]
    ts = np.logspace(-2, 0.5, 5)
    got = SuzukiGridCache(H, chi, ts)(scale)
    flat = schedule_matrices(merge_adjacent(suzuki_schedule(chi, H.L)), H, scale * ts)
    if chi == 1 and scale > 0:
        assert np.array_equal(got, flat)
    assert np.max(np.abs(got - flat)) <= 1e-12


def test_negative_scale_is_adjoint_and_not_stored(toy):
    cache = SuzukiGridCache(toy, 2, np.array([0.1, 0.7]))
    neg = cache(-3.0)
    assert np.array_equal(neg, cache(3.0).conj().transpose(0, 2, 1))
    assert list(cache._cache) == [3.0]


def test_distance_builds_two_s2_grids_per_node_magnitude(monkeypatch, capsys):
    builds = []

    def counting(sched, H, ts):
        builds.append((len(sched.steps), H.L, tuple(ts)))
        return schedule_matrices(sched, H, ts)

    monkeypatch.setattr(mpfsim.sweep, "schedule_matrices", counting)
    argv = [
        "distance", "--model", "toy", "--chi", "2", "--reps", "3",
        "--methods", "ts,cw,matching,cf", "--tau-points", "3",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    # the default chi = 2, R = 3 formulas use |b| = 1..7, 1/2 and 1/3
    assert len(builds) == 2 * 9
    assert all(steps == 2 * L - 1 for steps, L, _ in builds)
    assert len({grid for _, _, grid in builds}) == len(builds)


def test_method_matrices_is_mpf_matrices():
    assert method_matrices is mpf_matrices


def test_exact_evolutions_once_per_cache(toy, monkeypatch):
    calls = []

    def counting(H, ts):
        calls.append(len(ts))
        return exact_evolutions(H, ts)

    monkeypatch.setattr(mpfsim.sweep, "exact_evolutions", counting)
    taus = np.logspace(-2, 0, 4)
    cache = SuzukiGridCache(toy, 1, taus / lambda_norm(toy))
    specs = {
        Method.TROTTER_SUZUKI: None,
        Method.CHILDS_WIEBE: cw_coefficients(1, 1),
        Method.MATCHING: spec_from_b("matching", 1, 2, default_initial_b(1, 2, "matching")),
        Method.CLOSED_FORM: spec_from_b("cf", 1, 2, default_initial_b(1, 2, "cf")),
    }
    shared = {m: distance_curve(toy, m, taus, 1, 2, spec, cache)[0] for m, spec in specs.items()}
    assert calls == [4]
    for method, spec in specs.items():
        assert np.array_equal(shared[method], distance_curve(toy, method, taus, 1, 2, spec)[0])


def test_ts_matrices_repetition(toy):
    ts = np.array([0.3])
    single = ts_matrices(toy, 1, 1, ts / 3)
    tripled = ts_matrices(toy, 1, 3, ts)
    assert spectral_distance(tripled[0], np.linalg.matrix_power(single[0], 3)) < 1e-13


@pytest.mark.parametrize("model", ["toy", "heisenberg4", "free_fermion8"])
@pytest.mark.parametrize("chi", [1, 2])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_ts_matrices_equals_power_multiplied_by_hand(toy, model, chi, r):
    H = {"toy": toy, "heisenberg4": heisenberg(4), "free_fermion8": free_fermion(8)[1]}[model]
    ts = np.logspace(-2, 0.5, 5)
    cache = SuzukiGridCache(H, chi, ts)
    base = cache(1.0 / r)
    expected = base
    for _ in range(r - 1):
        expected = expected @ base
    assert np.array_equal(ts_matrices(H, chi, r, ts, cache), expected)
    assert np.array_equal(ts_matrices(H, chi, r, ts), expected)


@pytest.mark.parametrize("mismatch", ["hamiltonian", "order", "grid", "length"])
def test_cache_built_for_another_problem_is_rejected(toy, mismatch):
    lam = lambda_norm(toy)
    taus = np.logspace(-2, 0, 5)
    ts = taus / lam
    other = hamiltonian([pauli_string("X"), pauli_string("Y")], label="toy")
    cache = {
        "hamiltonian": SuzukiGridCache(other, 1, ts),
        "order": SuzukiGridCache(toy, 2, ts),
        "grid": SuzukiGridCache(toy, 1, 3 * ts),
        "length": SuzukiGridCache(toy, 1, ts),
    }[mismatch]
    if mismatch == "length":
        taus, ts = taus[:2], ts[:2]
    with pytest.raises(ValueError, match="another"):
        mpf_matrices(cw_coefficients(1, 1), toy, ts, cache)
    for method, spec in ((Method.TROTTER_SUZUKI, None), (Method.CHILDS_WIEBE, cw_coefficients(1, 1))):
        with pytest.raises(ValueError, match="another"):
            distance_curve(toy, method, taus, 1, 2, spec, cache)


def test_distance_curve_ts(toy):
    taus = np.logspace(-2, 0, 7)
    dists, bounds = distance_curve(toy, Method.TROTTER_SUZUKI, taus, chi=1, reps=2)
    lam = lambda_norm(toy)
    exact = exact_evolutions(toy, taus / lam)
    approx = ts_matrices(toy, 1, 2, taus / lam)
    expected = [spectral_distance(exact[i], approx[i]) for i in range(len(taus))]
    assert np.allclose(dists, expected, atol=1e-13)
    assert np.all(dists <= bounds + 1e-12)


def test_trotter_suzuki_distance_plateau_on_syk():
    # Every SYK term is exponentiated as exact row rotations, so the order-4
    # formula's distance at tiny tau sits near 3e-14; eigenbasis steps left
    # a plateau of ~1.3e-12 here.
    dists, _ = distance_curve(syk(10, seed=7), Method.TROTTER_SUZUKI, np.array([1e-3, 1e-2]), chi=2, reps=3)
    assert np.all(dists < 2e-13)


def test_distance_curve_requires_spec(toy):
    with pytest.raises(ValueError):
        distance_curve(toy, Method.MATCHING, np.array([0.1]), chi=1, reps=2)


def test_fit_order_slope_s2(toy):
    def distances(ts):
        exact = exact_evolutions(toy, ts)
        approx = ts_matrices(toy, 1, 1, ts)
        return [spectral_distance(exact[i], approx[i]) for i in range(len(ts))]

    fit = fit_order_slope(distances, t_min=1e-6, t_max=3.0)
    assert fit.slope == pytest.approx(3.0, abs=0.15)
    assert fit.n_points >= 6


def test_fit_order_slope_insufficient_window(toy):
    def distances(ts):
        return [1.0 for _ in ts]  # everything outside the clean window

    with pytest.raises(ValueError, match="insufficient"):
        fit_order_slope(distances, t_min=1e-6, t_max=3.0)
