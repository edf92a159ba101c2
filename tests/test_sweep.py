from types import SimpleNamespace

import numpy as np
import pytest

import mpfsim.cli
import mpfsim.sweep
from mpfsim.bounds import Method
from mpfsim.cli import main
from mpfsim.models import anticommuting, free_fermion, heisenberg, syk
from mpfsim.mpf import Layer, cw_coefficients, mpf_matrices
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
from references import reference_mpf_matrices


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
    entry = SuzukiGridCache(H, chi, ts)(abs(scale))
    got = entry if scale > 0 else entry.conj().transpose(0, 2, 1)
    flat = schedule_matrices(merge_adjacent(suzuki_schedule(chi, H.L)), H, scale * ts)
    if chi == 1 and scale > 0:
        assert np.array_equal(got, flat)
    assert np.max(np.abs(got - flat)) <= 1e-12


def test_negative_scale_is_adjoint_and_not_stored(toy):
    """The cache refuses b < 0; a formula's node b < 0 reads the adjoint of the |b| entry."""
    ts = np.array([0.1, 0.7])
    cache = SuzukiGridCache(toy, 2, ts)
    with pytest.raises(ValueError, match="size"):
        cache(-3.0)
    assert cache._cache == {}
    one_node = SimpleNamespace(chi=2, branches=((Layer(np.array([1.0]), np.array([-3.0]), np.array([1]), 1.0),),))
    neg = mpf_matrices(one_node, toy, ts, cache)
    assert np.array_equal(neg, cache(3.0).conj().transpose(0, 2, 1))
    assert list(cache._cache) == [3.0]


def test_keep_only_drops_the_other_sizes(toy):
    cache = SuzukiGridCache(toy, 1, np.array([0.1, 0.7]))
    kept = cache(0.5)
    cache(2.0)
    cache.keep_only({0.5, 3.0})
    assert list(cache._cache) == [0.5]
    assert cache(0.5) is kept


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


# The default chi = 2, reps = 3 formulas: ts reads 1/3, cw 1, 1/2 and 1/3,
# matching and cf the default nodes +-1..+-7.
DEFAULT_SIZES = {
    Method.TROTTER_SUZUKI: {1 / 3},
    Method.CHILDS_WIEBE: {1.0, 1 / 2, 1 / 3},
    Method.MATCHING: {float(k) for k in range(1, 8)},
    Method.CLOSED_FORM: {float(k) for k in range(1, 8)},
}


@pytest.mark.parametrize(
    "order",
    [(0, 1, 2, 3), (3, 2, 1, 0), (1, 2, 0, 3)],  # the last puts matching between the two readers of 1/3
    ids=["paper_order", "reversed_order", "interleaved_order"],
)
def test_distance_keeps_a_size_only_until_its_last_reader(order, monkeypatch, capsys):
    monkeypatch.setattr(mpfsim.cli, "METHOD_ORDER", tuple(mpfsim.cli.METHOD_ORDER[i] for i in order))
    held = []
    curve = mpfsim.cli.distance_curve

    def recording(H, method, taus, chi, reps, spec, cache):
        held.append((method, sorted(cache._cache)))
        return curve(H, method, taus, chi, reps, spec, cache)

    builds = []

    def counting(sched, H, ts):
        builds.append(tuple(ts))
        return schedule_matrices(sched, H, ts)

    monkeypatch.setattr(mpfsim.cli, "distance_curve", recording)
    monkeypatch.setattr(mpfsim.sweep, "schedule_matrices", counting)
    argv = ["distance", "--model", "toy", "--chi", "2", "--reps", "3", "--tau-points", "3"]
    assert main(argv) == 0
    capsys.readouterr()
    methods = [method for method, _ in held]
    assert methods == list(mpfsim.cli.METHOD_ORDER)
    for i, (method, sizes) in enumerate(held):
        read_before = set().union(*(DEFAULT_SIZES[m] for m in methods[:i]))
        read_from_here = set().union(*(DEFAULT_SIZES[m] for m in methods[i:]))
        assert set(sizes) == read_before & read_from_here, method
    assert len(builds) == 2 * 9  # each size built once, two S_2 grids each
    assert len(set(builds)) == len(builds)


@pytest.mark.parametrize(
    "model",
    [["heisenberg", "--n", "4"], ["anticommuting"], ["syk", "--syk-n", "8"], ["hubbard"], ["free_fermion", "--n", "4"]],
    ids=lambda m: m[0],
)
def test_distance_csv_is_the_reference_combinations(model, tmp_path, monkeypatch, capsys):
    """Entry release and the fixed-buffer combination leave every distance bit unchanged."""
    argv = ["distance", "--model", *model, "--tau-points", "4", "--csv"]
    assert main([*argv, str(tmp_path / "fixed.csv")]) == 0
    monkeypatch.setattr(mpfsim.sweep, "method_matrices", reference_mpf_matrices)
    assert main([*argv, str(tmp_path / "reference.csv")]) == 0
    capsys.readouterr()
    assert (tmp_path / "fixed.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


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
