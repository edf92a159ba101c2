import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpfsim.ensembles
import mpfsim.mpf
from mpfsim.ensembles import materialize, mixture_mean
from mpfsim.mpf import (
    BLOCK_MEMO_SIZE,
    IllConditionedSystemError,
    MatchingSolveError,
    branch_series,
    build_closedform,
    build_lblock,
    build_matching,
    cw_coefficients,
    matching_nu,
    mpf_ensemble,
    mpf_matrix,
    scalar_series,
    solve_vandermonde,
)
from mpfsim.operators import QuantumState, hamiltonian, observable, pauli_string, spectral_distance
from mpfsim.optimize import default_initial_b, spec_from_b
from mpfsim.sampling import expected_value
from mpfsim.schedules import merge_adjacent, s2_schedule, schedule_matrix, suzuki_schedule
from mpfsim.sweep import SuzukiGridCache
from references import enumerate_combos


@pytest.fixture(scope="module")
def toy():
    return hamiltonian([pauli_string("X"), pauli_string("Y")], label="toy")


def distinct_b(length, rng, box=4.0, min_sep=0.25):
    while True:
        b = rng.uniform(-box, box, length)
        sep = np.abs(np.subtract.outer(b, b))[~np.eye(length, dtype=bool)]
        if np.min(sep) > min_sep:
            return b


# --- Vandermonde -----------------------------------------------------------


def test_solve_vandermonde_trivial():
    C, cond = solve_vandermonde(np.array([0.0]), np.array([1.0]))
    assert C == pytest.approx([1.0])
    assert cond == pytest.approx(1.0)


def test_solve_vandermonde_two_by_two():
    C, _ = solve_vandermonde(np.array([1.0, -1.0]), np.array([1.0, 0.0]))
    assert C == pytest.approx([0.5, 0.5], abs=1e-14)
    C, _ = solve_vandermonde(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert C == pytest.approx([2.0, -1.0], abs=1e-13)


def test_solve_vandermonde_rejects_coincident_nodes():
    with pytest.raises(IllConditionedSystemError):
        solve_vandermonde(np.array([1.0, 1.0 + 1e-16, 2.0]), np.array([1.0, 0.0, 0.0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 5, 7, 13]))
@example(seed=2233, n=13)  # float64 residual 1.86e-9, extended-precision 7.8e-10
def test_solve_vandermonde_residual_invariant(seed, n):
    rng = np.random.default_rng(seed)
    b = distinct_b(n, rng)
    nu = np.zeros(n)
    nu[0] = 1.0
    nu[1 : min(5, n)] = rng.uniform(-1, 1, min(5, n) - 1)
    try:
        C, _ = solve_vandermonde(b, nu)
    except IllConditionedSystemError:
        return  # rejection is the documented outcome for bad node sets
    # extended precision, as in the solver's own acceptance check: a float64
    # B @ C rounds partial sums of size ~|b|^(n-1) |C| at the 1e-9 scale
    B = np.vander(b, n, increasing=True).T.astype(np.longdouble)
    resid = B @ C.astype(np.longdouble) - nu
    assert float(np.max(np.abs(resid))) <= 1e-9 * max(1.0, np.max(np.abs(nu)))
    assert np.sum(C) == pytest.approx(nu[0], abs=1e-10)


# --- Childs-Wiebe ----------------------------------------------------------


def test_cw_golden_chi1_k1():
    spec = cw_coefficients(1, 1)
    assert spec.C == pytest.approx([-1.0 / 3.0, 4.0 / 3.0], abs=1e-12)
    assert spec.resolution == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_cw_golden_chi1_k2():
    spec = cw_coefficients(1, 2)
    assert spec.C == pytest.approx([1.0 / 24.0, -16.0 / 15.0, 81.0 / 40.0], abs=1e-12)
    assert spec.resolution == pytest.approx(47.0 / 15.0, abs=1e-12)


def test_cw_golden_chi2_k2():
    spec = cw_coefficients(2, 2)
    # exact fractions: (1/336, -32/105, 729/560), resolution 169/105
    assert spec.C == pytest.approx([1.0 / 336.0, -32.0 / 105.0, 729.0 / 560.0], abs=1e-12)
    assert spec.resolution == pytest.approx(169.0 / 105.0, abs=1e-12)
    assert spec.resolution == pytest.approx(1.6095238, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(chi=st.integers(1, 3), K=st.integers(0, 3))
def test_cw_weights_sum_to_one(chi, K):
    spec = cw_coefficients(chi, K)
    assert np.sum(spec.C) == pytest.approx(1.0, abs=1e-12)
    assert spec.resolution >= 1.0 - 1e-12


# --- matching nu -----------------------------------------------------------


def test_matching_nu_single_block_is_ones():
    for chi in (1, 2, 3):
        (nu,) = matching_nu(chi, 1)
        assert np.allclose(nu[: 2 * chi + 1], 1.0, atol=1e-12)


def test_matching_nu_first_order_constraint():
    nus = matching_nu(1, 2)
    assert nus[0][1] + nus[1][1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("chi,R", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_matching_nu_product_matches_exponential(chi, R):
    # formal-series oracle: prod of truncated block series == exp series
    nus = matching_nu(chi, R)
    order = 2 * chi * R
    prod = np.zeros(order + 1)
    prod[0] = 1.0
    for nu in nus:
        block = np.zeros(order + 1)
        for k in range(2 * chi + 1):
            block[k] = nu[k] / math.factorial(k)
        new = np.zeros(order + 1)
        for i in range(order + 1):
            if prod[i]:
                new[i:] += prod[i] * block[: order + 1 - i]
        prod = new
    for k in range(order + 1):
        assert abs(prod[k] * math.factorial(k) - 1.0) <= 1e-10


def test_matching_nu_budget_failure_raises(monkeypatch):
    monkeypatch.setattr(mpfsim.mpf, "MATCHING_MAX_ITERATIONS", 1)
    monkeypatch.setattr(mpfsim.mpf, "MATCHING_RESIDUAL_TARGET", 1e-300)
    monkeypatch.setattr(mpfsim.mpf, "_matching_cache", {})
    with pytest.raises(MatchingSolveError):
        matching_nu(1, 4)


# --- closed-form nu --------------------------------------------------------


def test_closedform_nu_values():
    nu = mpfsim.mpf._closedform_nus(1, 2)[2]
    assert nu[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert nu[2] == pytest.approx(1.0 / 6.0, abs=1e-15)
    nu = mpfsim.mpf._closedform_nus(2, 2)[2]
    assert nu[4] == pytest.approx(1.0 / 70.0, abs=1e-15)


def test_closedform_nu_shift_and_first_blocks():
    nu0 = mpfsim.mpf._closedform_nus(2, 3)[0]
    expected = np.zeros(13)
    expected[4] = 1.0
    assert np.array_equal(nu0, expected)
    nu1 = mpfsim.mpf._closedform_nus(2, 3)[1]
    assert np.allclose(nu1[:5], 1.0) and np.allclose(nu1[5:], 0.0)


def test_closedform_nu_targets_are_read_only():
    nu = mpfsim.mpf._closedform_nus(2, 3)[2]
    assert not nu.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        nu[:] = 0.0
    assert nu[1] == math.factorial(4) / math.factorial(5)


# --- block memo ------------------------------------------------------------


def test_block_memo_shares_one_read_only_block():
    b = np.array([1.0, -1.0, 2.0, -2.0, 3.0])
    nu = mpfsim.mpf._closedform_nus(1, 2)[1]
    blk = build_lblock(1, 2, b, nu)
    assert build_lblock(1, 2, b.copy(), nu.copy()) is blk
    for arr in (blk.b, blk.nu, blk.C):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        blk.C[0] = 0.0
    b[0] = 5.0  # the caller's array stays writable and the block keeps its own nodes
    assert blk.b[0] == 1.0


def test_block_memo_reraises_a_cached_failure_with_its_message(monkeypatch):
    calls = []
    solve = mpfsim.mpf.solve_vandermonde
    monkeypatch.setattr(mpfsim.mpf, "solve_vandermonde", lambda b, nu: calls.append(1) or solve(b, nu))
    mpfsim.mpf._solved_block.cache_clear()
    b = np.array([1.0, 1.0, 2.0, -2.0, 3.0])
    nu = mpfsim.mpf._closedform_nus(1, 2)[1]
    with pytest.raises(IllConditionedSystemError) as first:
        build_lblock(1, 2, b, nu)
    with pytest.raises(IllConditionedSystemError) as second:
        build_lblock(1, 2, b, nu)
    assert str(second.value) == str(first.value) == "coincident b nodes"
    assert second.value is not first.value
    assert len(calls) == 1


def test_block_memo_holds_at_most_its_bound():
    assert BLOCK_MEMO_SIZE == 64
    nu = mpfsim.mpf._closedform_nus(1, 2)[1]
    for i in range(3 * BLOCK_MEMO_SIZE):
        build_lblock(1, 2, np.array([1.0, -1.0, 2.0, -2.0, 3.0 + 0.25 * i]), nu)
        assert mpfsim.mpf._solved_block.cache_info().currsize <= BLOCK_MEMO_SIZE
    assert mpfsim.mpf._solved_block.cache_info().currsize == BLOCK_MEMO_SIZE


def test_block_series_is_computed_once_and_equals_a_fresh_expansion():
    rng = np.random.default_rng(11)
    spec = build_closedform(1, 2, [distinct_b(5, rng) for _ in range(3)])
    first = branch_series(spec.branches[1], 5, magnitudes=True)
    kept = spec.block0.series(5, True)
    assert spec.block0.series(5, True) is kept and not kept.flags.writeable
    inv_k = 1.0 / np.arange(1, 6)
    terms = np.ones((5, 6))
    terms[:, 1:] = np.cumprod(np.abs(spec.block0.b)[:, None] * inv_k, axis=1)
    assert np.array_equal(kept, np.abs(spec.block0.C) @ terms)
    assert np.array_equal(branch_series(spec.branches[1], 5, magnitudes=True), first)


# --- builders --------------------------------------------------------------


def test_matching_r1_with_unit_node_degenerates():
    spec = build_matching(1, 1, [np.array([1.0, -1.0, 2.0])])
    assert spec.blocks[0].C == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
    assert spec.resolution == pytest.approx(1.0, abs=1e-12)


def test_closedform_r1_degenerates():
    spec = build_closedform(1, 1, [np.array([1.0, -1.0, 2.0])] * 2)
    assert spec.resolution == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000), kind=st.sampled_from(["matching", "cf"]))
def test_resolution_at_least_one(seed, kind):
    rng = np.random.default_rng(seed)
    chi, R = 1, 2
    n_blocks = R if kind == "matching" else R + 1
    b_list = [distinct_b(2 * chi * R + 1, rng) for _ in range(n_blocks)]
    try:
        spec = (
            build_matching(chi, R, b_list) if kind == "matching" else build_closedform(chi, R, b_list)
        )
    except IllConditionedSystemError:
        return
    assert spec.resolution >= 1.0 - 1e-10


def test_block_sum_rule():
    rng = np.random.default_rng(0)
    nus = matching_nu(2, 2)
    b = distinct_b(9, rng)
    blk = build_lblock(2, 2, b, nus[0])
    assert np.sum(blk.C) == pytest.approx(nus[0][0], abs=1e-10)


# --- materialized matrices -------------------------------------------------


def test_mpf_matrix_identity_at_zero(toy):
    rng = np.random.default_rng(1)
    specs = [
        cw_coefficients(1, 1),
        build_matching(1, 2, [distinct_b(5, rng) for _ in range(2)]),
        build_closedform(1, 2, [distinct_b(5, rng) for _ in range(3)]),
    ]
    for spec in specs:
        assert spectral_distance(mpf_matrix(spec, toy, 0.0), np.eye(2)) < 1e-12


def test_mpf_matrix_single_term_matches_scalar_phases():
    lam = 0.83
    H = hamiltonian([np.array([[lam]], dtype=complex)])
    rng = np.random.default_rng(3)
    spec = build_matching(1, 2, [distinct_b(5, rng) for _ in range(2)])
    t = 0.47
    got = mpf_matrix(spec, H, t)[0, 0]
    expected = 1.0
    for blk in spec.blocks:
        expected *= np.sum(blk.C * np.exp(-1j * blk.b * lam * t))
    assert abs(got - expected) < 1e-12


def test_mpf_matrix_cw_composition(toy):
    spec = cw_coefficients(1, 1)
    t = 0.29
    s2 = merge_adjacent(s2_schedule(2))
    half = schedule_matrix(s2, toy, t / 2)
    expected = -schedule_matrix(s2, toy, t) / 3.0 + (4.0 / 3.0) * (half @ half)
    assert spectral_distance(mpf_matrix(spec, toy, t), expected) < 1e-13


# --- scalar series ---------------------------------------------------------


def test_scalar_series_cw_exact():
    c = scalar_series(cw_coefficients(1, 1), 4)
    for k in range(5):
        assert c[k] == pytest.approx(1.0 / math.factorial(k), abs=1e-12)


@pytest.mark.parametrize("chi,R", [(1, 2), (2, 2)])
@pytest.mark.parametrize("kind", ["matching", "cf"])
def test_scalar_series_random_b(chi, R, kind):
    rng = np.random.default_rng(chi * 10 + R)
    n_blocks = R if kind == "matching" else R + 1
    b_list = [distinct_b(2 * chi * R + 1, rng) for _ in range(n_blocks)]
    spec = build_matching(chi, R, b_list) if kind == "matching" else build_closedform(chi, R, b_list)
    c = scalar_series(spec, 2 * chi * R)
    for k in range(2 * chi * R + 1):
        assert abs(c[k] - 1.0 / math.factorial(k)) <= 1e-9


def test_block_with_basis_nu_gives_constant_series():
    b = np.array([1.0, -1.0, 2.0, -2.0, 3.0])
    nu = np.zeros(5)
    nu[0] = 1.0
    series = branch_series((build_lblock(1, 2, b, nu),), 4)
    assert series[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(series[1:])) < 1e-10


# --- ensembles -------------------------------------------------------------


def test_mpf_ensemble_cw_entries(toy):
    spec = cw_coefficients(1, 1)
    ens = mpf_ensemble(spec, toy.L)
    assert ens.spec is spec
    assert ens.schedule == merge_adjacent(s2_schedule(toy.L))
    mat = materialize(ens, toy, 0.4)
    (br,) = mat.branches
    assert br.layer_probs[0] == pytest.approx([0.2, 0.8], abs=1e-12)
    assert br.layer_signs[0].tolist() == [-1, 1]
    assert mat.resolution == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_ensemble_probability_normalization(toy):
    rng = np.random.default_rng(5)
    spec = build_closedform(1, 2, [distinct_b(5, rng) for _ in range(3)])
    mat = materialize(mpf_ensemble(spec, toy.L), toy, 0.4)
    assert sum(br.probability for br in mat.branches) == pytest.approx(1.0, abs=1e-12)
    for br in mat.branches:
        for probs in br.layer_probs:
            assert np.all(probs >= 0)
            assert np.sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_single_entry_layer_deterministic(toy):
    spec = build_matching(1, 1, [np.array([1.0, -1.0, 2.0])])
    ens = mpf_ensemble(spec, toy.L)
    mat = materialize(ens, toy, 0.4)
    combos = list(enumerate_combos(mat))
    weights = np.array([p for p, _, _ in combos])
    # all the weight concentrates on the single surviving entry
    assert np.max(weights) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_exact_mixture_identity(toy, kind):
    rng = np.random.default_rng(11)
    if kind == "cw":
        spec = cw_coefficients(1, 1)
    elif kind == "matching":
        spec = build_matching(1, 2, [distinct_b(5, rng) for _ in range(2)])
    else:
        spec = build_closedform(1, 2, [distinct_b(5, rng) for _ in range(3)])
    t = 0.33
    mat = materialize(mpf_ensemble(spec, toy.L), toy, t)
    target = mpf_matrix(spec, toy, t)
    # product-of-sums route
    assert spectral_distance(mat.resolution * mixture_mean(mat), target) < 1e-12
    # full enumeration route
    total = np.zeros((2, 2), dtype=complex)
    for p, s, op in enumerate_combos(mat):
        total += p * s * op
    assert spectral_distance(mat.resolution * total, target) < 1e-11


# --- canonical form ---------------------------------------------------------


def spec_of_kind(kind, rng, chi=1):
    if kind == "cw":
        return cw_coefficients(chi, 2)
    n_blocks = 2 if kind == "matching" else 3
    return spec_from_b(kind, chi, 2, [distinct_b(4 * chi + 1, rng) for _ in range(n_blocks)])


def flat_suzuki(H, chi, t):
    """S_2chi(t) built step by step from the merged flat Suzuki schedule."""
    return schedule_matrix(merge_adjacent(suzuki_schedule(chi, H.L)), H, t)


@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_branches_one_norms_give_resolution(kind):
    spec = spec_of_kind(kind, np.random.default_rng(21))
    assert spec.kind == kind
    total = sum(math.prod(layer.one_norm for layer in branch) for branch in spec.branches)
    assert total == pytest.approx(spec.resolution, rel=1e-15)


def test_branch_shapes_per_kind():
    rng = np.random.default_rng(22)
    assert [len(br) for br in spec_of_kind("cw", rng).branches] == [1]
    assert [len(br) for br in spec_of_kind("matching", rng).branches] == [2]
    cf = spec_of_kind("cf", rng)
    assert [len(br) for br in cf.branches] == [1, 2]
    assert cf.branches[1][0] is cf.block0


@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_ensemble_has_one_branch_per_formula_branch(toy, kind):
    spec = spec_of_kind(kind, np.random.default_rng(23), chi=2)
    t = 0.4
    mat = materialize(mpf_ensemble(spec, toy.L), toy, t)
    cache = SuzukiGridCache(toy, spec.chi, np.array([t]))
    weights = [math.prod(layer.one_norm for layer in branch) for branch in spec.branches]
    assert len(mat.branches) == len(spec.branches)
    for br, branch, w in zip(mat.branches, spec.branches, weights):
        assert br.probability == pytest.approx(w / sum(weights), rel=1e-15)
        assert len(br.layer_matrices) == len(branch)
        for probs, signs, mats, layer in zip(br.layer_probs, br.layer_signs, br.layer_matrices, branch):
            assert probs == pytest.approx(np.abs(layer.C) / layer.one_norm, rel=1e-15)
            assert np.array_equal(signs, np.sign(layer.C))
            assert len(mats) == len(layer.C)
            for b, power, m in zip(layer.b, layer.power, mats):
                step = cache(b)[0]
                if power == 1:  # every cf and matching entry
                    assert np.array_equal(m, step)
                else:  # a Childs-Wiebe entry S(t/l)^l
                    assert np.max(np.abs(m - np.linalg.matrix_power(step, power))) <= 1e-14
                flat = np.linalg.matrix_power(flat_suzuki(toy, spec.chi, b * t), power)
                assert np.max(np.abs(m - flat)) <= 1e-13

@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_expected_value_matches_enumeration(kind):
    H = hamiltonian([pauli_string("XI"), pauli_string("ZZ"), pauli_string("IY")], label="toy3")
    spec = spec_of_kind(kind, np.random.default_rng(24))
    mat = materialize(mpf_ensemble(spec, H.L), H, 0.4)
    O = observable(pauli_string("ZI"))
    rho = QuantumState.basis(H.dim, 1)
    vbar = np.zeros((H.dim, H.dim), dtype=complex)
    for p, sign, op in enumerate_combos(mat):
        vbar += p * sign * op
    brute = np.trace(O.matrix @ vbar @ rho.as_density() @ vbar.conj().T).real
    assert abs(expected_value(mat, rho, O) - brute) <= 1e-12


def test_materialize_builds_each_distinct_operator_once(toy, monkeypatch):
    calls = []
    original = mpfsim.ensembles.schedule_matrix

    def counting(s, H, t):
        calls.append(t)
        return original(s, H, t)

    monkeypatch.setattr(mpfsim.ensembles, "schedule_matrix", counting)
    chi = 2
    spec = spec_from_b("cf", chi, 2, default_initial_b(chi, 2, "cf"))
    ens = mpf_ensemble(spec, toy.L)
    t = 0.37
    mat = materialize(ens, toy, t)
    layers = [layer for branch in spec.branches for layer in branch]
    assert sum(len(layer.b) for layer in layers) == 27
    sizes = {abs(float(b)) for layer in layers for b in layer.b}
    assert len(sizes) == 5
    assert len(calls) == 2 ** (chi - 1) * len(sizes)
    monkeypatch.undo()
    cache = SuzukiGridCache(toy, chi, np.array([t]))
    entries = {}
    for br, mbr in zip(spec.branches, mat.branches):
        for layer, mats in zip(br, mbr.layer_matrices):
            for b, m in zip(layer.b, mats):
                entries[float(b)] = m
                assert np.array_equal(m, cache(b)[0])
                assert np.max(np.abs(m - flat_suzuki(toy, chi, b * t))) <= 1e-13
    negative = [b for b in entries if b < 0]
    assert negative
    for b in negative:
        assert np.array_equal(entries[b], entries[-b].conj().T)
    assert spectral_distance(mat.resolution * mixture_mean(mat), mpf_matrix(spec, toy, t)) < 1e-12
