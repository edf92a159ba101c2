import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpfsim.ensembles
import mpfsim.mpf
import mpfsim.sweep
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
    mpf_matrices,
    mpf_matrix,
    scalar_series,
    scale_sizes,
    solve_vandermonde,
)
from mpfsim.models import free_fermion, heisenberg, hubbard_2x2
from mpfsim.operators import QuantumState, hamiltonian, observable, pauli_string, spectral_distance
from mpfsim.optimize import default_initial_b, spec_from_b
from mpfsim.sampling import expected_value
from mpfsim.schedules import merge_adjacent, s2_schedule, schedule_matrix, suzuki_leaf_scales, suzuki_schedule
from mpfsim.sweep import SuzukiGridCache
from platforms import cpu_features, openblas_core
from references import (
    array_poly_mul,
    componentwise_backward_error,
    enumerate_combos,
    exact_block_weights,
    reference_mpf_matrices,
)


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


def random_system(seed, n):
    """Nodes from ``distinct_b`` and a target with nu_0 = 1 and up to four uniform entries."""
    rng = np.random.default_rng(seed)
    b = distinct_b(n, rng)
    nu = np.zeros(n)
    nu[0] = 1.0
    nu[1 : min(5, n)] = rng.uniform(-1, 1, min(5, n) - 1)
    return b, nu


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 5, 7, 13]))
@example(seed=2233, n=13)  # float64 residual 1.86e-9, extended-precision 7.8e-10
def test_solve_vandermonde_residual_invariant(seed, n):
    b, nu = random_system(seed, n)
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


# The row-0 defect: on these n = 13 systems the accepted weights miss
# sum(C) == nu[0] by 5.8e-10, 1.9e-10 and 4.1e-10, so the Hypothesis test
# above fails whenever it draws one of them.  A solver that fixes the defect
# turns these into passes and the seeds into pinned examples there.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="row-0 defect of the block-weight solver")
@pytest.mark.parametrize("seed", [699, 5694, 6082])
def test_solve_vandermonde_row_zero_defect(seed):
    b, nu = random_system(seed, 13)
    C, _ = solve_vandermonde(b, nu)
    assert np.sum(C) == pytest.approx(nu[0], abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=14),
    b=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=14),
    order=st.integers(0, 13),
)
def test_poly_mul_is_the_array_form_bitwise(a, b, order):
    got = np.array(mpfsim.mpf._poly_mul(a, b, order))
    assert got.tobytes() == array_poly_mul(np.array(a), np.array(b), order).tobytes()


# Accuracy against the correctly rounded weights C*.  Each bound was measured
# over every system its test can draw (all 40,004 random and 10,000 perturbed
# default systems; numpy 2.4.6 with OpenBLAS 0.3.31's Haswell kernels) and
# keeps a margin for other BLAS kernels.
# Componentwise backward error: at most 1.65e-12 on random nodes (61x below
# the bound) and 6.2e-10 on perturbed default nodes (16x).
RANDOM_NODES_BACKWARD_BOUND = 1e-10
DEFAULT_NODES_BACKWARD_BOUND = 1e-8
# Forward error max|C - C*| / max|C*|, in units of cond_2(B) eps: at most
# 0.245 on random nodes (a 3-node system of cond 4; 4x) and 5.1e-4 on
# perturbed default nodes.
FORWARD_BOUND = 1.0


def assert_near_exact_weights(b, nu, backward_bound):
    try:
        C, cond = solve_vandermonde(b, nu)
    except IllConditionedSystemError:
        return  # rejection is the documented outcome for bad node sets
    exact = exact_block_weights(b, nu)
    assert componentwise_backward_error(b, nu, C) <= backward_bound
    forward = np.max(np.abs(C - exact)) / np.max(np.abs(exact))
    assert forward <= FORWARD_BOUND * cond * np.finfo(float).eps


def test_exact_block_weights_are_correctly_rounded():
    assert exact_block_weights([1.0, 2.0], [1.0, 0.0]).tolist() == [2.0, -1.0]
    assert exact_block_weights([1.0, 2.0, 3.0], [1.0, 0.0, 0.0]).tolist() == [3.0, -3.0, 1.0]
    # C_1 + C_2 = 1 and C_1 / 2 + 3 C_2 = 1: C = (4/5, 1/5), each rounded once
    assert exact_block_weights([0.5, 3.0], [1.0, 1.0]).tolist() == [0.8, 0.2]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 5, 7, 13]))
def test_exact_block_weights_have_backward_error_below_the_unit_roundoff(seed, n):
    # rounding the exact solution moves each C_q by at most u |C_q|
    b, nu = random_system(seed, n)
    assert componentwise_backward_error(b, nu, exact_block_weights(b, nu)) <= 2.0**-53 * (1 + 2.0**-52)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([3, 5, 7, 13]))
# sum(C) misses nu_0 by 5.8e-10, 1.9e-10 and 4.1e-10 here (the residual
# invariant's second check); the backward errors are 1.2e-12, 9.5e-13, 5.4e-13
@example(seed=699, n=13)
@example(seed=5694, n=13)
@example(seed=6082, n=13)
def test_solve_vandermonde_near_exact_weights_on_random_nodes(seed, n):
    b, nu = random_system(seed, n)
    assert_near_exact_weights(b, nu, RANDOM_NODES_BACKWARD_BOUND)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9_999))
def test_solve_vandermonde_near_exact_weights_on_perturbed_default_nodes(seed):
    # chi = 2, R = 3: the default node pattern plus U(-0.45, 0.45) per entry,
    # the target cycling through the four cf and three matching ones
    rng = np.random.default_rng(seed)
    b = default_initial_b(2, 3, "cf")[0] + rng.uniform(-0.45, 0.45, 13)
    targets = [*mpfsim.mpf._closedform_nus(2, 3), *matching_nu(2, 3)]
    assert_near_exact_weights(b, targets[seed % len(targets)], DEFAULT_NODES_BACKWARD_BOUND)


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
    matching_nu.cache_clear()
    with pytest.raises(MatchingSolveError):
        matching_nu(1, 4)


def test_matching_nu_is_solved_once_and_a_failure_is_not_kept(monkeypatch):
    matching_nu.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(mpfsim.mpf, "MATCHING_MAX_ITERATIONS", 1)
        m.setattr(mpfsim.mpf, "MATCHING_RESIDUAL_TARGET", 1e-300)
        with pytest.raises(MatchingSolveError):
            matching_nu(2, 3)
    nus = matching_nu(2, 3)
    assert matching_nu(2, 3) is nus
    assert not any(nu.flags.writeable for nu in nus)
    fresh = matching_nu.__wrapped__(2, 3)
    assert [nu.tobytes() for nu in nus] == [nu.tobytes() for nu in fresh]


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
    kept = spec.blocks[0].series(5, True)
    assert spec.blocks[0].series(5, True) is kept and not kept.flags.writeable
    inv_k = 1.0 / np.arange(1, 6)
    terms = np.ones((5, 6))
    terms[:, 1:] = np.cumprod(np.abs(spec.blocks[0].b)[:, None] * inv_k, axis=1)
    assert np.array_equal(kept, np.abs(spec.blocks[0].C) @ terms)
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
    assert cf.branches[1][0] is cf.blocks[0]


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
                entry = cache(abs(b))[0]
                step = entry if b >= 0 else entry.conj().T
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
    batches, checks = [], []
    batched, single = mpfsim.sweep.schedule_matrices, mpfsim.ensembles.schedule_matrix

    def counting_batch(s, H, ts):
        batches.append(np.array(ts))
        return batched(s, H, ts)

    def counting_check(s, H, t):
        checks.append(t)
        return single(s, H, t)

    monkeypatch.setattr(mpfsim.sweep, "schedule_matrices", counting_batch)
    monkeypatch.setattr(mpfsim.ensembles, "schedule_matrix", counting_check)
    chi = 2
    spec = spec_from_b("cf", chi, 2, default_initial_b(chi, 2, "cf"))
    ens = mpf_ensemble(spec, toy.L)
    t = 0.37
    mat = materialize(ens, toy, t)
    layers = [layer for branch in spec.branches for layer in branch]
    assert sum(len(layer.b) for layer in layers) == 27
    sizes = {abs(float(b)) for layer in layers for b in layer.b}
    assert len(sizes) == 5
    leaves = {y for size in sizes for y in suzuki_leaf_scales(chi, size)}
    assert len(leaves) == 2 ** (chi - 1) * len(sizes)
    # one step loop over every leaf time, and one-point check builds of the leaves of the largest size
    assert len(batches) == 1
    assert sorted(batches[0].tolist()) == sorted(y * t for y in leaves)
    assert checks == [y * t for y in suzuki_leaf_scales(chi, max(sizes))]
    assert len(checks) == 2 ** (chi - 1)
    monkeypatch.undo()
    cache = SuzukiGridCache(toy, chi, np.array([t]))
    entries = {}
    for br, mbr in zip(spec.branches, mat.branches):
        for layer, mats in zip(br, mbr.layer_matrices):
            for b, m in zip(layer.b, mats):
                entries[float(b)] = m
                entry = cache(abs(b))[0]
                assert np.array_equal(m, entry if b >= 0 else entry.conj().T)
                assert np.max(np.abs(m - flat_suzuki(toy, chi, b * t))) <= 1e-13
    negative = [b for b in entries if b < 0]
    assert negative
    for b in negative:
        assert np.array_equal(entries[b], entries[-b].conj().T)
    assert spectral_distance(mat.resolution * mixture_mean(mat), mpf_matrix(spec, toy, t)) < 1e-12


def test_materialize_raises_when_the_check_build_differs(toy, monkeypatch):
    single = mpfsim.ensembles.schedule_matrix

    def one_ulp_off(s, H, t):
        out = single(s, H, t).copy()
        out.real[0, 0] = np.nextafter(out.real[0, 0], np.inf)
        return out

    monkeypatch.setattr(mpfsim.ensembles, "schedule_matrix", one_ulp_off)
    # entries S(t) and S(t/2)^2: at chi = 1 the leaves are the sizes 1 and 1/2
    with pytest.raises(RuntimeError, match=r"scale 1\.0 differs"):
        materialize(mpf_ensemble(cw_coefficients(1, 1), toy.L), toy, 0.4)


def test_materialize_memory_stays_at_the_one_point_builds():
    """hubbard's d = 256 fills the build budget with one leaf, so a chunk holds one.

    Its 28 leaves (7 sizes, 4 per size at chi = 3) built in one batch would
    take about 32 leaf arrays beyond the one-point builds' peak.
    """
    H = hubbard_2x2()
    leaf = 16 * H.dim**2
    assert leaf == mpfsim.ensembles.BATCH_BYTES
    chi, R, t = 3, 2, 0.3
    spec = spec_from_b("cf", chi, R, default_initial_b(chi, R, "cf"))
    ens = mpf_ensemble(spec, H.L)

    def one_point():
        cache = SuzukiGridCache(H, chi, np.array([t]))
        return [
            np.stack([cache(abs(float(b)))[0] if b >= 0 else cache(abs(float(b)))[0].conj().T for b in layer.b])
            for branch in spec.branches
            for layer in branch
        ]

    def peak(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: materialize(ens, H, t)) <= peak(one_point) + leaf


# Every materialized entry against the one-point cache entry by bytes, on each
# zoo model; run in a fresh process under the given platform setting.
_MATERIALIZE_EQUALS_ONE_POINT = r"""
import os
import sys

sys.path[:0] = sys.argv[1:3]
import numpy as np
from mpfsim.ensembles import materialize
from mpfsim.mpf import mpf_ensemble
from mpfsim.optimize import default_initial_b, spec_from_b
from mpfsim.sweep import SuzukiGridCache
from platforms import cpu_features, openblas_core
from test_schedules import ZOO

still_on = [f for f in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split() if cpu_features().get(f)]
if still_on:
    raise SystemExit(f"features not disabled: {still_on}")
print(openblas_core())
for model in sorted(ZOO):
    H = ZOO[model]()
    for chi, R in ((2, 3), (3, 2)):
        spec = spec_from_b("cf", chi, R, default_initial_b(chi, R, "cf"))
        t = 0.37
        mat = materialize(mpf_ensemble(spec, H.L), H, t)
        cache = SuzukiGridCache(H, chi, np.array([t]))
        for branch, mbr in zip(spec.branches, mat.branches):
            for layer, mats in zip(branch, mbr.layer_matrices):
                for b, m in zip(layer.b, mats):
                    entry = cache(abs(float(b)))[0]
                    if m.tobytes() != (entry if b >= 0 else entry.conj().T).tobytes():
                        raise SystemExit(f"{model} chi={chi}: entry b={b} differs from the one-point build")
print("ok")
"""


@pytest.mark.parametrize(
    "name,value", [("OPENBLAS_CORETYPE", "Prescott"), ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")]
)
def test_materialize_equals_one_point_builds_under_emulated_platforms(name, value):
    """Heisenberg's eigenbasis steps are GEMMs over the whole batch, the others' rotations SIMD loops."""
    default_core = openblas_core()
    if name == "OPENBLAS_CORETYPE" and default_core is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    missing = [f for f in value.split() if not cpu_features().get(f)]
    if name == "NPY_DISABLE_CPU_FEATURES" and missing:
        pytest.skip(f"numpy found no {missing} on this machine")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _MATERIALIZE_EQUALS_ONE_POINT, str(root / "src"), str(root / "tests")],
        env={**os.environ, name: value}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    core, verdict = proc.stdout.split()
    if name == "OPENBLAS_CORETYPE" and core == default_core:
        pytest.skip(f"{name}={value} selects no other kernel than {core} here")
    assert verdict == "ok"


CW_PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3))

# The running OpenBLAS kernel, then the bytes of each CW_PAIRS weight vector in
# hex; run in a fresh process under the given kernel.
_CW_WEIGHTS = r"""
import sys

sys.path[:0] = sys.argv[1:3]
from mpfsim.mpf import cw_coefficients
from platforms import openblas_core
from test_mpf import CW_PAIRS

print(openblas_core())
for chi, K in CW_PAIRS:
    print(cw_coefficients(chi, K).C.tobytes().hex())
"""


@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_cw_weights_do_not_depend_on_the_openblas_kernel(core):
    """cw_coefficients solves its system with LAPACK, so each kernel must give the same bits."""
    default_core = openblas_core()
    if default_core is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _CW_WEIGHTS, str(root / "src"), str(root / "tests")],
        env={**os.environ, "OPENBLAS_CORETYPE": core}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    forced, *weights = proc.stdout.split()
    if forced == default_core:
        pytest.skip(f"OPENBLAS_CORETYPE={core} selects no other kernel than {forced} here")
    assert weights == [cw_coefficients(chi, K).C.tobytes().hex() for chi, K in CW_PAIRS]


def default_spec(kind, chi, R=3):
    """cw on ells 1..R (powers up to R), or matching / cf on the default nodes +-1, +-2, ..."""
    if kind == "cw":
        return cw_coefficients(chi, R - 1)
    return spec_from_b(kind, chi, R, default_initial_b(chi, R, kind))


@pytest.mark.parametrize("shared", [True, False], ids=["shared_cache", "fresh_cache"])
@pytest.mark.parametrize("n_ts", [1, 5])
@pytest.mark.parametrize("chi", [1, 2])
@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_mpf_matrices_is_the_reference_bitwise(kind, chi, n_ts, shared):
    H = heisenberg(3)
    ts = np.linspace(0.05, 0.9, n_ts)
    spec = default_spec(kind, chi)
    if kind == "cw":
        assert max(spec.branches[0][0].power) == 3
    else:
        assert min(b for branch in spec.branches for layer in branch for b in layer.b) < 0
    if shared:  # one cache, already holding other formulas' entries
        cache = SuzukiGridCache(H, chi, ts)
        for other in ("cw", "matching", "cf"):
            mpf_matrices(default_spec(other, chi, R=2), H, ts, cache)
        got, want = mpf_matrices(spec, H, ts, cache), reference_mpf_matrices(spec, H, ts, cache)
    else:
        got, want = mpf_matrices(spec, H, ts), reference_mpf_matrices(spec, H, ts)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chi", [1, 2])
@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_mpf_matrices_holds_four_grid_arrays(kind, chi):
    H = free_fermion(64)[1]
    ts = np.linspace(0.1, 0.8, 8)
    spec = default_spec(kind, chi)
    cache = SuzukiGridCache(H, chi, ts)
    for size in scale_sizes(spec):
        cache(size)
    grid_array = len(ts) * H.dim**2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        mpf_matrices(spec, H, ts, cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # slack: a ufunc iteration buffer (8192 complex entries) and small objects
    assert peak <= 4 * grid_array + 2**18
