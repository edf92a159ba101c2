import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfsim.bounds import (
    Method,
    cw_bound,
    depth_report,
    g_factor,
    hoeffding_shots,
    new_bound,
    resolution_shots,
    ts_bound,
    zeta,
    zeta_cf,
    zeta_matching,
)
from mpfsim.mpf import (
    ClosedFormMPF,
    LBlock,
    MatchingMPF,
    build_closedform,
    build_matching,
    cw_coefficients,
)
from mpfsim.operators import QuantumState, observable, pauli_string
from mpfsim.optimize import default_initial_b, spec_from_b
from references import lemma_closeness_check


def hand_block(b, C):
    b = np.asarray(b, float)
    C = np.asarray(C, float)
    return LBlock(b=b, nu=np.zeros(len(b)), C=C, one_norm=float(np.sum(np.abs(C))), cond=1.0)


def brute_zeta_matching(spec):
    n = 2 * spec.chi * spec.R + 1
    total = 0.0
    for combo in itertools.product(*[range(len(blk.C)) for blk in spec.blocks]):
        w, s = 1.0, 0.0
        for blk, q in zip(spec.blocks, combo):
            w *= abs(blk.C[q])
            s += abs(blk.b[q])
        total += w * s**n
    return total


def brute_zeta_cf(spec):
    n = 2 * spec.chi * spec.R + 1
    total = 0.0
    for r in range(1, spec.R + 1):
        blocks = [spec.block0] * (r - 1) + [spec.blocks[r - 1]]
        for combo in itertools.product(*[range(len(blk.C)) for blk in blocks]):
            w, s = 1.0, 0.0
            for blk, q in zip(blocks, combo):
                w *= abs(blk.C[q])
                s += abs(blk.b[q])
            total += w * s**n
    return total


def distinct_b(length, rng, box=4.0, min_sep=0.3):
    while True:
        b = rng.uniform(-box, box, length)
        sep = np.abs(np.subtract.outer(b, b))[~np.eye(length, dtype=bool)]
        if np.min(sep) > min_sep:
            return b


def test_g_factor_values():
    assert g_factor(1) == pytest.approx(4.0 / 5.0, abs=1e-15)
    assert g_factor(2) == pytest.approx(8.0 / 3.0, abs=1e-14)
    assert g_factor(3) == pytest.approx(20.0 / 3.0, abs=1e-14)


def test_ts_bound_values():
    assert ts_bound(1, 1, 1.0, 0.0) == 0.0
    assert ts_bound(1, 1, 1.0, 1.0) == pytest.approx(2 * (4 / 5) ** 3 / 6, abs=1e-15)
    assert ts_bound(1, 1, 1.0, 1.0) == pytest.approx(0.170667, abs=1e-6)
    # doubling r divides by 2^(2chi+1)
    assert ts_bound(2, 2, 1.3, 0.7) == pytest.approx(ts_bound(2, 1, 1.3, 0.7) / 2**5, rel=1e-12)
    # depth-parity configuration at tau = 1: 2 (8/9)^5 / 5!
    assert ts_bound(2, 3, 1.0, 1.0) == pytest.approx(2 * (8 / 9) ** 5 / 120, rel=1e-12)
    assert ts_bound(2, 3, 1.0, 1.0) == pytest.approx(9.2488e-3, rel=1e-4)


def test_cw_bound_value():
    spec = cw_coefficients(1, 1)
    got = cw_bound(1, 1, spec.C, 1.0, 0.1)
    expected = (1 + (4 / 5) ** 5 * (5 / 3)) * 0.1**5 / 120
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.288e-7, rel=1e-3)
    assert cw_bound(1, 1, spec.C, 1.0, 0.0) == 0.0


@settings(max_examples=25, deadline=None)
@given(t1=st.floats(0.01, 5.0), factor=st.floats(1.01, 3.0))
def test_bounds_monotone_in_t(t1, factor):
    spec = cw_coefficients(2, 2)
    assert cw_bound(2, 2, spec.C, 1.0, t1 * factor) >= cw_bound(2, 2, spec.C, 1.0, t1)
    assert ts_bound(2, 3, 1.0, t1 * factor) >= ts_bound(2, 3, 1.0, t1)
    assert new_bound(2, 3, 5.0, 1.0, t1 * factor) >= new_bound(2, 3, 5.0, 1.0, t1)


def test_new_bound_values():
    assert new_bound(1, 2, 2.0, 1.0, 0.0) == 0.0
    expected = (1 + 2 * (4 / 5) ** 5) * 0.5**5 / 120
    assert new_bound(1, 2, 2.0, 1.0, 0.5) == pytest.approx(expected, rel=1e-12)
    assert new_bound(1, 2, 2.0, 1.0, 0.5) == pytest.approx(4.31e-4, rel=1e-3)
    # zeta = 0 reduces to the bare Taylor remainder
    assert new_bound(1, 2, 0.0, 1.0, 0.5) == pytest.approx(0.5**5 / 120, rel=1e-12)


def test_zeta_single_trivial_block():
    spec = build_matching(1, 1, [np.array([1.0, -1.0, 2.0])])
    # single surviving entry with C = 1 at b = 1: weight * |b|^n = 1
    assert zeta_matching(spec) == pytest.approx(1.0, abs=1e-10)


def test_zeta_two_schematic_blocks():
    # two blocks with C = (1/2, 1/2), b = (1, -1) at chi=1, R=2 (n = 5):
    # every of the 4 combinations has weight 1/4 and |b|-sum 2, so 4 * (1/4) * 2^5
    blocks = (hand_block([1.0, -1.0], [0.5, 0.5]),) * 2
    spec = MatchingMPF(chi=1, R=2, blocks=blocks, resolution=1.0)
    assert zeta_matching(spec) == pytest.approx(32.0, rel=1e-12)
    assert zeta_matching(spec) == pytest.approx(brute_zeta_matching(spec), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2000))
def test_zeta_matching_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    blocks = tuple(hand_block(distinct_b(5, rng), rng.uniform(-1, 1, 5)) for _ in range(2))
    spec = MatchingMPF(chi=1, R=2, blocks=blocks, resolution=1.0)
    assert zeta_matching(spec) == pytest.approx(brute_zeta_matching(spec), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2000))
def test_zeta_cf_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    block0 = hand_block(distinct_b(5, rng), rng.uniform(-1, 1, 5))
    blocks = tuple(hand_block(distinct_b(5, rng), rng.uniform(-1, 1, 5)) for _ in range(2))
    spec = ClosedFormMPF(chi=1, R=2, block0=block0, blocks=blocks, resolution=1.0)
    assert zeta_cf(spec) == pytest.approx(brute_zeta_cf(spec), rel=1e-12)


def test_zeta_on_built_specs():
    rng = np.random.default_rng(77)
    m = build_matching(1, 2, [distinct_b(5, rng) for _ in range(2)])
    assert zeta_matching(m) == pytest.approx(brute_zeta_matching(m), rel=1e-12)
    cf = build_closedform(1, 2, [distinct_b(5, rng) for _ in range(3)])
    assert zeta_cf(cf) == pytest.approx(brute_zeta_cf(cf), rel=1e-12)


def test_hoeffding_shots():
    plan = hoeffding_shots(0.1, 0.05)
    assert plan.N == 738
    assert plan.N == math.ceil(2 * math.log(40.0) / 0.01)
    with pytest.raises(ValueError):
        hoeffding_shots(1.0, 0.05)
    # halving epsilon quadruples the pre-ceiling count
    assert 2 * math.log(40) / 0.05**2 == pytest.approx(4 * 2 * math.log(40) / 0.1**2)


def test_resolution_shots():
    assert resolution_shots(2.0, 0.1, 0.05).N == 11805
    assert resolution_shots(1.36, 0.1, 0.05).N == 5459
    # Xi = 1 is exactly 4x the Hoeffding count before ceiling
    assert 8 * math.log(40) * (1.0 / 0.1) ** 2 == pytest.approx(4 * 2 * math.log(40) / 0.01)
    with pytest.raises(ValueError):
        resolution_shots(0.5, 0.1, 0.05)


def test_depth_report_parity():
    # 2chi = 4 with r = R = K+1 = 3 gives 30 second-order blocks for all methods
    for method in Method:
        _, blocks = depth_report(method, 2, 3, L=8)
        assert blocks == 30
    merged, _ = depth_report(Method.TROTTER_SUZUKI, 2, 3, L=8)
    assert merged == 3 * 71 - 2


def test_lemma_closeness_exact_scaling():
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    O = observable(pauli_string(["Z", "I"]))
    rho = QuantumState.basis(4, 0)
    xi = 1.7
    lhs, rhs, holds = lemma_closeness_check(U, U / xi, xi, O, rho)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert holds


def test_lemma_closeness_perturbed():
    rng = np.random.default_rng(1)
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    E = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    E *= 0.01 / np.linalg.norm(E, 2)
    xi = 1.5
    O = observable(pauli_string(["Z", "I"]))
    rho = QuantumState.basis(4, 0)
    lhs, rhs, holds = lemma_closeness_check(U, (U + E) / xi, xi, O, rho)
    assert rhs == pytest.approx(0.03, abs=1e-12)
    assert holds
    # the proof's sharper intermediate line: lhs <= 2 eps + eps^2
    eps = np.linalg.norm(xi * (U + E) / xi - U, 2)
    assert lhs <= 2 * eps + eps**2 + 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), noise=st.floats(1e-4, 0.3))
def test_lemma_closeness_random(seed, noise):
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    E = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    E *= noise / np.linalg.norm(E, 2)
    xi = 1.0 + rng.uniform(0, 1)
    O = observable(pauli_string(["Z", "I"]))
    rho = QuantumState.basis(4, 0)
    lhs, rhs, holds = lemma_closeness_check(U, (U + E) / xi, xi, O, rho)
    assert holds
    eps = np.linalg.norm((U + E) - U, 2)
    assert lhs <= 2 * eps + eps**2 + 1e-12


def _scale_moment_loop(layers, n):
    """The zeta moment as one cumprod/convolve loop over layers: the float order zeta must keep."""
    inv_k = 1.0 / np.arange(1, n + 1)
    coeff = np.zeros(n + 1)
    coeff[0] = 1.0
    for layer in layers:
        terms = np.ones((len(layer.b), n + 1))
        terms[:, 1:] = np.cumprod((np.abs(layer.b) * layer.power)[:, None] * inv_k, axis=1)
        g = np.abs(layer.C) @ terms
        coeff = np.convolve(coeff, g)[: n + 1]
    return float(coeff[n]) * math.factorial(n)


def _zeta_reference(spec):
    n = 2 * spec.chi * spec.R + 1
    return sum(_scale_moment_loop(branch, n) for branch in spec.branches)


@pytest.mark.parametrize("kind", ["matching", "cf"])
@pytest.mark.parametrize("chi,R", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)])
def test_zeta_keeps_its_floating_point_order(kind, chi, R):
    # The basin hopping amplifies one ulp of the loss into other nodes, so
    # zeta must equal the reference loop exactly, not approximately.
    m = 2 * chi * R + 1
    specs = [spec_from_b(kind, chi, R, default_initial_b(chi, R, kind))]
    rng = np.random.default_rng(100 * chi + R)
    for _ in range(8):
        if kind == "matching":
            blocks = tuple(hand_block(distinct_b(m, rng), rng.normal(size=m)) for _ in range(R))
            specs.append(MatchingMPF(chi=chi, R=R, blocks=blocks, resolution=1.0))
        else:
            block0, *blocks = (hand_block(distinct_b(m, rng), rng.normal(size=m)) for _ in range(R + 1))
            specs.append(ClosedFormMPF(chi=chi, R=R, block0=block0, blocks=tuple(blocks), resolution=1.0))
    for spec in specs:
        assert zeta(spec) == _zeta_reference(spec)
