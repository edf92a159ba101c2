import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpfsim.operators
from mpfsim.models import anticommuting, free_fermion, heisenberg, hubbard_2x2, syk
from mpfsim.operators import exact_evolution, hamiltonian, hermitian_term, pauli_string, spectral_distance
from mpfsim.schedules import (
    merge_adjacent,
    merged_count,
    s2_schedule,
    schedule_matrices,
    schedule_matrix,
    suzuki_constant,
    suzuki_leaf_scales,
    suzuki_merged_count,
    suzuki_recursion,
    suzuki_schedule,
)
from platforms import cpu_features
from references import full_width_schedule_matrices, s1_schedule

X = pauli_string("X")
Y = pauli_string("Y")
Z = pauli_string("Z")


def alpha_sums(s):
    """Total alpha per term; equals 1 per term for any Suzuki schedule."""
    out = np.zeros(s.L)
    for k, a in s.steps:
        out[k] += a
    return out


def remainder_bound(s, H, t, ell):
    """Taylor-remainder bound (sum_j |alpha_j| ||h_kj|| t)^(ell+1) / (ell+1)!."""
    total = sum(abs(a) * H.terms[k].norm for k, a in s.steps)
    return (total * t) ** (ell + 1) / math.factorial(ell + 1)


@pytest.fixture(scope="module")
def toy():
    return hamiltonian([X, Y], label="toy")


def expm_pauli(p, theta):
    # closed form exp(-i theta P) = cos(theta) I - i sin(theta) P for P^2 = I
    return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * p


def test_s1_unrolled():
    assert s1_schedule(1).steps == ((0, 1.0),)
    assert s1_schedule(3).steps == ((0, 1.0), (1, 1.0), (2, 1.0))


def test_s2_unrolled_and_merged():
    s = s2_schedule(2)
    assert s.steps == ((0, 0.5), (1, 0.5), (1, 0.5), (0, 0.5))
    merged = merge_adjacent(s)
    assert merged.steps == ((0, 0.5), (1, 1.0), (0, 0.5))


def test_suzuki_constant_value():
    # evaluate the defining formula at chi = 1
    assert suzuki_constant(1) == pytest.approx(1.0 / (4.0 - 4.0 ** (1.0 / 3.0)), abs=1e-15)
    assert suzuki_constant(1) == pytest.approx(0.414491, abs=1e-6)


def test_suzuki_reduces_to_s2():
    assert suzuki_schedule(1, 4).steps == s2_schedule(4).steps


@pytest.mark.parametrize("chi", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_suzuki_merged_counts(chi, L):
    assert merged_count(suzuki_schedule(chi, L)) == suzuki_merged_count(chi, L)
    assert suzuki_merged_count(chi, L) == 2 * 5 ** (chi - 1) * (L - 1) + 1


@pytest.mark.parametrize("chi,L", [(1, 2), (2, 3), (3, 2), (2, 5)])
def test_alpha_sums_are_one(chi, L):
    sums = alpha_sums(suzuki_schedule(chi, L))
    assert np.allclose(sums, 1.0, atol=1e-14)


@pytest.mark.parametrize("chi", [1, 2, 3])
def test_suzuki_recursion_matches_flat_schedule(chi):
    H = hamiltonian([pauli_string("XI"), pauli_string("ZZ"), pauli_string("IY")])
    s2, t, scales = merge_adjacent(s2_schedule(H.L)), 0.3, []

    def build(y):
        scales.append(y)
        return schedule_matrix(s2, H, y * t)

    got = suzuki_recursion(chi, -1.5, build)
    assert len(scales) == 2 ** (chi - 1)
    flat = schedule_matrix(merge_adjacent(suzuki_schedule(chi, H.L)), H, -1.5 * t)
    assert np.max(np.abs(got - flat)) <= 1e-13


@pytest.mark.parametrize("chi", [1, 2, 3, 4])
@pytest.mark.parametrize("y", [0.0, 1 / 3, 7.0, 0.37])
def test_suzuki_leaf_scales_are_the_recursion_calls(chi, y):
    calls = []

    def record(scale):
        calls.append(scale)
        return np.eye(1)

    suzuki_recursion(chi, y, record)
    assert len(calls) == 2 ** (chi - 1)
    # hex, so that -0.0 (a negative middle factor at y = 0) must match too
    assert [x.hex() for x in suzuki_leaf_scales(chi, y)] == [x.hex() for x in calls]


def test_repeat_improves_error_quadratically(toy):
    t = 0.05
    exact = exact_evolution(toy, t)
    d1 = spectral_distance(exact, schedule_matrix(s2_schedule(2), toy, t))
    d4 = spectral_distance(exact, np.linalg.matrix_power(schedule_matrix(s2_schedule(2), toy, t / 4), 4))
    assert d1 / d4 == pytest.approx(16.0, rel=0.2)


def test_schedule_matrix_zero_time(toy):
    assert np.allclose(schedule_matrix(s2_schedule(2), toy, 0.0), np.eye(2), atol=1e-15)


def test_schedule_matrix_single_term():
    H = hamiltonian([X])
    t = 0.31
    assert np.allclose(schedule_matrix(s1_schedule(1), H, t), expm_pauli(X, t), atol=1e-14)


def test_schedule_matrix_s2_brute_force(toy):
    # hand-multiplied 2x2 exponentials, independent of the step loop
    t = 0.37
    expected = expm_pauli(X, t / 2) @ expm_pauli(Y, t) @ expm_pauli(X, t / 2)
    got = schedule_matrix(merge_adjacent(s2_schedule(2)), toy, t)
    assert spectral_distance(got, expected) < 1e-14


def test_schedule_matrix_term_count_mismatch(toy):
    with pytest.raises(ValueError):
        schedule_matrix(s1_schedule(3), toy, 0.1)


@settings(max_examples=20, deadline=None)
@given(t=st.floats(-2.0, 2.0, allow_nan=False), chi=st.integers(1, 2))
def test_schedule_matrix_unitary(toy, t, chi):
    u = schedule_matrix(suzuki_schedule(chi, 2), toy, t)
    assert np.linalg.norm(u @ u.conj().T - np.eye(2), 2) <= 1e-11


def test_merge_preserves_matrix(toy):
    s = suzuki_schedule(2, 2)
    t = 0.6
    assert spectral_distance(
        schedule_matrix(s, toy, t), schedule_matrix(merge_adjacent(s), toy, t)
    ) < 1e-13
    assert len(merge_adjacent(s).steps) <= len(s.steps)


def test_schedule_matrices_batch_agrees(toy):
    ts = np.array([0.0, 0.2, 0.9])
    batch = schedule_matrices(suzuki_schedule(2, 2), toy, ts)
    for i, t in enumerate(ts):
        assert spectral_distance(batch[i], schedule_matrix(suzuki_schedule(2, 2), toy, t)) < 1e-13


def test_s2_order_three_slope(toy):
    # log-log slope of the S2 error on the anticommuting pair
    ts = np.logspace(-3, -1, 12)
    dists = [
        spectral_distance(exact_evolution(toy, t), schedule_matrix(s2_schedule(2), toy, t))
        for t in ts
    ]
    slope = np.polyfit(np.log10(ts), np.log10(dists), 1)[0]
    assert slope == pytest.approx(3.0, abs=0.15)


def test_remainder_bound_values(toy):
    s = s2_schedule(2)
    assert remainder_bound(s, toy, 0.0, 3) == 0.0
    single = s1_schedule(1)
    H1 = hamiltonian([X])
    assert remainder_bound(single, H1, 1.0, 0) == pytest.approx(1.0)
    # s2 on two unit-norm terms: sum |alpha| * norm = 2, so (0.2)^3 / 3!
    assert remainder_bound(s, toy, 0.1, 2) == pytest.approx((0.2) ** 3 / 6, rel=1e-12)
    assert remainder_bound(s, toy, 0.1, 2) == pytest.approx(1.3333e-3, rel=1e-4)


def expm_product(s, H, t):
    """The schedule as a product of scipy.linalg.expm step factors."""
    expm = pytest.importorskip("scipy.linalg").expm
    out = np.eye(H.dim, dtype=complex)
    for k, a in s.steps:
        out = out @ expm(-1j * a * t * H.terms[k].matrix)
    return out


ZOO = {
    "heisenberg4": lambda: heisenberg(4),
    "anticommuting": anticommuting,
    "syk8": lambda: syk(8, seed=3),
    "hubbard": hubbard_2x2,
    "free_fermion8": lambda: free_fermion(8)[1],
    "free_fermion7": lambda: free_fermion(7)[1],
}
# Terms exponentiated as row rotations: every term of every model except
# Heisenberg's and the odd ring's even-bond term, whose row 0 holds two bonds.
ROTATION_TERMS = {"heisenberg4": 0, "anticommuting": 8, "syk8": 70, "hubbard": 14, "free_fermion8": 2, "free_fermion7": 1}


@pytest.mark.parametrize("model", sorted(ZOO))
def test_schedule_matrices_match_expm_products(model):
    H = ZOO[model]()
    assert sum(term.rotation is not None for term in H.terms) == ROTATION_TERMS[model]
    s = merge_adjacent(s2_schedule(H.L))
    ts = np.array([0.4, -0.9, 0.0])
    got = schedule_matrices(s, H, ts)
    for i, t in enumerate(ts):
        assert spectral_distance(got[i], expm_product(s, H, t)) <= 1e-13


def test_rotation_data_of_a_mixed_term():
    # row 0 zero, row 1 diagonal, rows 2-3 a complex pair, row 4 a negative diagonal entry
    m = np.zeros((5, 5), dtype=complex)
    m[1, 1] = 0.7
    m[2, 3], m[3, 2] = 0.3 - 0.4j, 0.3 + 0.4j
    m[4, 4] = -1.2
    cols, mag, phase = hermitian_term(m).rotation
    assert cols.tolist() == [0, 1, 3, 2, 4]
    assert mag.tolist() == [0.0, 0.7, 0.5, 0.5, 1.2]
    assert phase[0] == 0 and phase[1] == 1 and phase[4] == -1
    assert phase[3] == np.conj(phase[2])


def test_pair_entries_come_from_one_triangle():
    # the lower entry differs from the conjugate upper one within the Hermiticity tolerance
    m = np.array([[0, 1 + 2j], [1 - 2j + 1e-14, 0]])
    _, mag, phase = hermitian_term(m).rotation
    assert mag[0] == mag[1]
    assert phase[1] == np.conj(phase[0])


HAND_TERMS = {
    "zero_diag_pair": np.diag([0.0, 0.7, 0.0, 0.0, -1.2]).astype(complex)
    + np.pad(np.array([[0, 0.3 - 0.4j], [0.3 + 0.4j, 0]]), ((2, 1), (2, 1))),
    "diagonal": np.diag([0.5, -0.25, 0.0, 2.0]).astype(complex),
    "zero": np.zeros((3, 3), dtype=complex),
    "y_type": np.kron(Y, Z),
    "fixed_points_and_pairs": np.kron(np.diag([1.0, 0.0]), X) + np.kron(np.diag([0.0, -0.6]), np.eye(2)),
    "two_per_row": X + Z,
    "pair_and_fixed_point": np.pad(0.8 * Y, ((0, 1), (0, 1))) + np.diag([0.0, 0.0, 1.5]),
}


@pytest.mark.parametrize("name", sorted(HAND_TERMS))
def test_hand_built_terms_match_expm(name):
    H = hamiltonian([HAND_TERMS[name]])
    assert (H.terms[0].rotation is None) == (name == "two_per_row")
    s = s1_schedule(1)
    ts = np.array([0.37, -1.3, 0.0, 4.0])
    got = schedule_matrices(s, H, ts)
    for i, t in enumerate(ts):
        assert spectral_distance(got[i], expm_product(s, H, t)) <= 1e-13


def mixed_hamiltonian():
    return hamiltonian([X + Z, Y, np.diag([0.3, -0.3]).astype(complex)])


def test_rotation_and_eigenbasis_steps_mix_in_one_loop():
    H = mixed_hamiltonian()
    assert [term.rotation is None for term in H.terms] == [True, False, False]
    s = merge_adjacent(suzuki_schedule(2, 3))
    for t in (0.8, -0.25):
        assert spectral_distance(schedule_matrix(s, H, t), expm_product(s, H, t)) <= 1e-13


@pytest.mark.parametrize("model", ["heisenberg4", "syk8"])
def test_schedule_matrix_is_the_one_point_batch(model):
    H = ZOO[model]()
    s = merge_adjacent(s2_schedule(H.L))
    for t in (0.3, -1.1):
        assert schedule_matrix(s, H, t).tobytes() == schedule_matrices(s, H, [t])[0].tobytes()


def diagonal_hamiltonian():
    return hamiltonian([np.diag([0.5, -0.25, 0.0, 2.0]), np.diag([1.0, 0.0, -0.7, 0.3])])


# Every zoo model and a one-term Hamiltonian of every hand-built term.
IDENTITY_MODELS = {
    **ZOO,
    **{f"hand_{name}": (lambda m=m: hamiltonian([m])) for name, m in HAND_TERMS.items()},
    "mixed": mixed_hamiltonian,
    "diagonal": diagonal_hamiltonian,
}
# Negative, zero and positive times; beyond |angle| = pi/2 a cosine turns
# negative, which is where the full-width loop leaves -0 outside the blocks.
IDENTITY_TIMES = np.array([-0.9, 0.0, 0.37, 3.0, -7.5, 1.7, 12.0, -2.2, 0.5, 40.0, -40.0, 2.9, -0.01, 6.3, 100.0, 1e-3])


def assert_block_loop_is_full_width(model):
    """schedule_matrices against the full-width loop by bytes and strides, at B = 1, 3 and 16."""
    H = IDENTITY_MODELS[model]()
    s = merge_adjacent(s2_schedule(H.L))
    for ts in (IDENTITY_TIMES[:1], IDENTITY_TIMES[1:2], IDENTITY_TIMES[2:3], IDENTITY_TIMES[:3], IDENTITY_TIMES):
        got, want = schedule_matrices(s, H, ts), full_width_schedule_matrices(s, H, ts)
        assert got.strides == want.strides, f"{model} at B = {len(ts)}"
        assert got.tobytes() == want.tobytes(), f"{model} at B = {len(ts)}"


@pytest.mark.parametrize("model", sorted(IDENTITY_MODELS))
def test_block_loop_equals_the_full_width_loop(model):
    assert_block_loop_is_full_width(model)


# The byte-identity check in a fresh process with numpy's widest SIMD loops off.
_BLOCK_LOOP_UNDER_EMULATION = r"""
import os
import sys

sys.path[:0] = sys.argv[1:3]
from platforms import cpu_features
from test_schedules import IDENTITY_MODELS, assert_block_loop_is_full_width

still_on = [f for f in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if cpu_features().get(f)]
if still_on:
    raise SystemExit(f"features not disabled: {still_on}")
for model in sorted(IDENTITY_MODELS):
    assert_block_loop_is_full_width(model)
print("ok")
"""


def test_block_loop_equals_the_full_width_loop_without_avx512():
    """The two layouts put an entry at other offsets, so it may fall in a SIMD body in one and a tail in the other."""
    features = "X86_V4 AVX512_ICL AVX512_SPR"
    missing = [f for f in features.split() if not cpu_features().get(f)]
    if missing:
        pytest.skip(f"numpy found no {missing} on this machine")
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_LOOP_UNDER_EMULATION, str(root / "src"), str(root / "tests")],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": features}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    assert proc.stdout.split() == ["ok"]


# (widest block, number of blocks); d and 1 where one block spans all rows.
PARTITIONS = {
    "syk8": (8, 2),
    "hubbard": (36, 25),
    "heisenberg4": (16, 1),
    "anticommuting": (128, 1),
    "free_fermion8": (8, 1),
    "free_fermion7": (7, 1),
    "diagonal": (1, 4),
    "mixed": (2, 1),
}


@pytest.mark.parametrize("model", sorted(PARTITIONS))
def test_invariant_blocks(model):
    H = IDENTITY_MODELS[model]()
    blocks = H.block_columns
    assert (blocks.shape[1], len(np.unique(blocks, axis=0))) == PARTITIONS[model]
    assert not blocks.flags.writeable
    assert (blocks.strides[0] == 0) == (PARTITIONS[model][1] == 1)  # one block: no (d, d) table
    # each row lists its block ascending, itself included, and every member lists the same block
    for i, block in enumerate(blocks):
        members = block[block >= 0]
        assert i in members and np.all(np.diff(members) > 0) and np.all(block[len(members):] == -1)
        assert np.all(blocks[members] == block)
    for term in H.terms:
        if term.rotation is not None:
            assert np.array_equal(blocks[term.rotation[0]], blocks)


def test_invariant_blocks_are_derived_once_per_hamiltonian(monkeypatch):
    calls = []
    derive = mpfsim.operators._block_columns
    monkeypatch.setattr(mpfsim.operators, "_block_columns", lambda *args: calls.append(args) or derive(*args))
    H = ZOO["syk8"]()
    s = merge_adjacent(s2_schedule(H.L))
    for t in (0.3, -1.1):
        schedule_matrices(s, H, [t])
    assert len(calls) == 1
    assert H.block_columns is H.block_columns
