import numpy as np
import pytest

import mpfsim.sweep
from mpfsim.bounds import Method
from mpfsim.mpf import cw_coefficients, mpf_matrices
from mpfsim.operators import (
    exact_evolutions,
    hamiltonian,
    lambda_norm,
    pauli_string,
    spectral_distance,
)
from mpfsim.optimize import default_initial_b, spec_from_b
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


def test_cache_prewarm_threaded_matches_serial(toy):
    ts = np.array([0.1, 0.3])
    serial = SuzukiGridCache(toy, 2, ts)
    threaded = SuzukiGridCache(toy, 2, ts)
    threaded.prewarm([0.5, 1.0, -1.0], max_workers=3)
    for s in (0.5, 1.0, -1.0):
        assert np.array_equal(serial(s), threaded(s))


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


def test_distance_curve_ts(toy):
    taus = np.logspace(-2, 0, 7)
    dists, bounds = distance_curve(toy, Method.TROTTER_SUZUKI, taus, chi=1, reps=2)
    lam = lambda_norm(toy)
    exact = exact_evolutions(toy, taus / lam)
    approx = ts_matrices(toy, 1, 2, taus / lam)
    expected = [spectral_distance(exact[i], approx[i]) for i in range(len(taus))]
    assert np.allclose(dists, expected, atol=1e-13)
    assert np.all(dists <= bounds + 1e-12)


def test_distance_curve_requires_spec(toy):
    with pytest.raises(ValueError):
        distance_curve(toy, Method.MATCHING, np.array([0.1]), chi=1, reps=2)


def test_fit_order_slope_s2(toy):
    def distances(ts):
        exact = exact_evolutions(toy, ts)
        approx = ts_matrices(toy, 1, 1, ts)
        return [spectral_distance(exact[i], approx[i]) for i in range(len(ts))]

    fit = fit_order_slope(distances)
    assert fit.slope == pytest.approx(3.0, abs=0.15)
    assert fit.n_points >= 6


def test_fit_order_slope_insufficient_window(toy):
    def distances(ts):
        return [1.0 for _ in ts]  # everything outside the clean window

    with pytest.raises(ValueError, match="insufficient"):
        fit_order_slope(distances)
