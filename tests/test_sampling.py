import functools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpfsim.sampling
from mpfsim.bounds import hoeffding_shots
from mpfsim.ensembles import materialize, mixture_mean
from mpfsim.models import build_model
from mpfsim.mpf import cw_coefficients, mpf_ensemble, mpf_matrix
from mpfsim.operators import (
    QuantumState,
    expectation,
    hamiltonian,
    lambda_norm,
    observable,
    pauli_string,
    sandwich,
)
from mpfsim.optimize import default_initial_b, spec_from_b
from mpfsim.sampling import (
    ShotRecord,
    expected_value,
    prepare_sampler,
    run_estimator,
    shot_rng,
    single_shot,
)
from platforms import cpu_features
from references import (
    coverage_experiment,
    enumerate_combos,
    lemma_closeness_check,
    reference_branch_tables,
    reference_shot,
)

Z1 = pauli_string("Z")


@pytest.fixture(scope="module")
def toy2q():
    return hamiltonian([pauli_string("XI"), pauli_string("ZZ")], label="toy2q")


@pytest.fixture(scope="module")
def cw_setup(toy2q):
    spec = cw_coefficients(1, 1)
    t = 0.3
    mat = materialize(mpf_ensemble(spec, toy2q.L), toy2q, t)
    O = observable(pauli_string("ZI"))
    rho = QuantumState.basis(toy2q.dim, 0)
    return spec, t, mat, O, rho


def identity_ensemble(L):
    """One deterministic entry S2(t), the one-entry Childs-Wiebe formula; the identity at t = 0."""
    return mpf_ensemble(cw_coefficients(1, 0), L)


def test_hadamard_test_collapses_to_expectation():
    rng = np.random.default_rng(0)
    V = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    O = observable(Z1)
    rho = QuantumState.basis(2, 0)
    assert sandwich(O, rho, V, V) * O.scale == pytest.approx(
        expectation(O, rho, V), abs=1e-12
    )


def test_hadamard_test_sign_linearity():
    O = observable(Z1)
    rho = QuantumState.basis(2, 0)
    val = sandwich(O, rho, np.eye(2), -np.eye(2)) * O.scale
    assert val == pytest.approx(-expectation(O, rho, np.eye(2)), abs=1e-12)


def test_hadamard_test_i_z_example():
    # (1/2) tr(Z (rho Z + Z rho)) with rho = |0><0| equals 1, by 2x2 arithmetic
    O = observable(Z1)
    rho = QuantumState.basis(2, 0)
    assert sandwich(O, rho, np.eye(2), Z1) * O.scale == pytest.approx(1.0, abs=1e-12)


def test_hadamard_test_density_path_agrees():
    rng = np.random.default_rng(3)
    Vo = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    Vb = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    O = observable(Z1)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    pure = sandwich(O, QuantumState.pure(v), Vo, Vb)
    dm = sandwich(O, QuantumState.mixed(np.outer(v, v.conj())), Vo, Vb)
    assert pure == pytest.approx(dm, abs=1e-12)


def test_single_shot_outcomes_in_spectrum(cw_setup):
    _, _, mat, O, rho = cw_setup
    sampler = prepare_sampler(mat, rho, O)
    values = set(np.round(np.abs(O.eigenvalues), 12))
    for j in range(200):
        rec = single_shot(sampler, shot_rng(1, 0, j))
        assert round(abs(rec.outcome), 12) in values
        assert rec.sign_product in (-1, 1)


def test_single_shot_deterministic_case(toy2q):
    # identity circuit on an eigenstate: outcome has zero variance
    mat = materialize(identity_ensemble(toy2q.L), toy2q, 0.0)
    O = observable(pauli_string("ZI"))
    rho = QuantumState.basis(toy2q.dim, 0)
    sampler = prepare_sampler(mat, rho, O)
    outcomes = {single_shot(sampler, shot_rng(0, 0, j)).outcome for j in range(50)}
    assert outcomes == {1.0}


def test_single_shot_empirical_mean(cw_setup):
    _, _, mat, O, rho = cw_setup
    n = 100_000
    mean = run_estimator(mat, rho, O, n, seed=42)[1]
    target = expected_value(mat, rho, O)
    sigma = 1.0 / np.sqrt(n)  # outcomes bounded by 1
    assert abs(mean - target) <= 3 * sigma


def test_expected_value_single_entry(toy2q):
    mat = materialize(identity_ensemble(toy2q.L), toy2q, 0.17)
    O = observable(pauli_string("ZI"))
    rho = QuantumState.basis(toy2q.dim, 0)
    V = mat.branches[0].layer_matrices[0][0]
    assert expected_value(mat, rho, O) == pytest.approx(expectation(O, rho, V), abs=1e-12)


def test_expected_value_matches_mpf_sandwich(cw_setup):
    spec, t, mat, O, rho = cw_setup
    M = mpf_matrix(spec, hamiltonian([pauli_string("XI"), pauli_string("ZZ")]), t)
    direct = np.trace(O.matrix @ M @ rho.as_density() @ M.conj().T).real
    assert mat.resolution**2 * expected_value(mat, rho, O) == pytest.approx(direct, abs=1e-10)


def test_expected_value_linear_in_observable(cw_setup):
    _, _, mat, O, rho = cw_setup
    neg = observable(-pauli_string("ZI"))
    assert expected_value(mat, rho, neg) == pytest.approx(-expected_value(mat, rho, O), abs=1e-12)


def test_run_estimator_seeded_repeatability(cw_setup):
    _, _, mat, O, rho = cw_setup
    e1, m1 = run_estimator(mat, rho, O, 500, seed=9)
    e2, m2 = run_estimator(mat, rho, O, 500, seed=9)
    e3, _ = run_estimator(mat, rho, O, 500, seed=10)
    assert e1 == e2 and m1 == m2
    assert e1 != e3


def test_run_estimator_hoeffding_convergence(toy2q):
    # resolution-one ensemble of the exact unitary itself
    mat = materialize(identity_ensemble(toy2q.L), toy2q, 0.9)
    O = observable(pauli_string("ZI"))
    rho = QuantumState.basis(toy2q.dim, 0)
    V = mat.branches[0].layer_matrices[0][0]
    truth = expectation(O, rho, V)
    eps, delta = 0.1, 0.05
    n = hoeffding_shots(eps, delta).N
    est, _ = run_estimator(mat, rho, O, n, seed=5)
    assert abs(est - truth) <= eps


def test_estimator_rescales_large_observables(toy2q):
    mat = materialize(identity_ensemble(toy2q.L), toy2q, 0.4)
    rho = QuantumState.basis(toy2q.dim, 0)
    O1 = observable(pauli_string("ZI"))
    O3 = observable(3.0 * pauli_string("ZI"))
    assert O3.scale == pytest.approx(3.0)
    e1, _ = run_estimator(mat, rho, O1, 4000, seed=3)
    e3, _ = run_estimator(mat, rho, O3, 4000, seed=3)
    assert e3 == pytest.approx(3.0 * e1, rel=1e-12)


def test_variance_sanity_pauli_observable(cw_setup):
    # O^2 = I: single-shot signed outcomes are +-1, so var = 1 - E[o]^2
    _, _, mat, O, rho = cw_setup
    sampler = prepare_sampler(mat, rho, O)
    n = 20_000
    signs, outcomes = mpfsim.sampling._shots(sampler, mpfsim.sampling._uniforms(7, 0, 0, n))
    vals = signs * outcomes
    target = expected_value(mat, rho, O)
    assert np.var(vals) == pytest.approx(1 - target**2, abs=5 / np.sqrt(n))


def test_coverage_deterministic_ensemble(toy2q):
    mat = materialize(identity_ensemble(toy2q.L), toy2q, 0.0)
    O = observable(pauli_string("ZI"))
    rho = QuantumState.basis(toy2q.dim, 0)
    assert coverage_experiment(mat, rho, O, 0.2, 0.1, trials=60, seed=0) == 1.0


def test_coverage_is_fraction_of_estimator_streams_within_epsilon(cw_setup):
    _, _, mat, O, rho = cw_setup
    eps, delta, trials, seed = 0.3, 0.9, 50, 3
    n = hoeffding_shots(eps, delta).N
    target = expected_value(mat, rho, O)
    means = [run_estimator(mat, rho, O, n, seed, stream=s)[1] for s in range(trials)]
    expected = sum(abs(m - target) <= eps for m in means) / trials
    assert 0.0 < expected < 1.0
    assert coverage_experiment(mat, rho, O, eps, delta, trials, seed) == expected


def test_coverage_requires_enough_trials(cw_setup):
    _, _, mat, O, rho = cw_setup
    with pytest.raises(ValueError):
        coverage_experiment(mat, rho, O, 0.2, 0.1, trials=10, seed=0)


def test_mixed_state_expected_value_agrees_with_pure_average(cw_setup):
    spec, t, mat, O, _ = cw_setup
    dim = 4
    rng = np.random.default_rng(8)
    v1 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v1 /= np.linalg.norm(v1)
    v2 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v2 /= np.linalg.norm(v2)
    dm = 0.35 * np.outer(v1, v1.conj()) + 0.65 * np.outer(v2, v2.conj())
    mixed = expected_value(mat, QuantumState.mixed(dm), O)
    split = 0.35 * expected_value(mat, QuantumState.pure(v1), O) + 0.65 * expected_value(
        mat, QuantumState.pure(v2), O
    )
    assert mixed == pytest.approx(split, abs=1e-12)


def test_mixed_state_shots_unbiased(cw_setup):
    _, _, mat, O, _ = cw_setup
    dm = np.diag([0.5, 0.2, 0.2, 0.1]).astype(complex)
    rho = QuantumState.mixed(dm)
    n = 40_000
    mean = run_estimator(mat, rho, O, n, seed=21)[1]
    assert mean == pytest.approx(expected_value(mat, rho, O), abs=3 / np.sqrt(n))


def test_doubling_shots_improves_mean_abs_error(cw_setup):
    _, _, mat, O, rho = cw_setup
    target = expected_value(mat, rho, O)

    def mean_abs_err(n, trials=40):
        errs = [abs(run_estimator(mat, rho, O, n, 33, stream=s)[1] - target) for s in range(trials)]
        return np.mean(errs)

    assert mean_abs_err(300) < mean_abs_err(150)


def test_density_path_dimension_cap():
    from mpfsim.operators import hamiltonian as _ham

    big = 128
    H = _ham([np.diag(np.arange(big, dtype=float))])
    mat = materialize(identity_ensemble(H.L), H, 0.0)
    O = observable(np.diag(np.linspace(-1, 1, big)))
    rho = QuantumState.mixed(np.eye(big) / big)
    with pytest.raises(ValueError, match="capped"):
        prepare_sampler(mat, rho, O)
    with pytest.raises(ValueError, match="capped"):
        prepare_sampler(mat, QuantumState.mixed(np.diag([0.5, 0.5] + [0.0] * (big - 2))), O)
    # The cap is on factors of several columns: a rank-one density samples.
    v = np.zeros(big, dtype=complex)
    v[3] = 1.0
    sampler = prepare_sampler(mat, QuantumState.mixed(np.outer(v, v)), O)
    assert sampler.branches[0].combo_amps.shape == (1, big, 1)


def _random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("rank", [0, 1, 2, 3, 4])
def test_factor_kernel_matches_density_formulas(cw_setup, rank):
    """The factor kernel against the density products it replaced (rank 0: pure)."""
    _, _, mat, _, _ = cw_setup
    rng = np.random.default_rng(40 + rank)
    h = _random_matrix(rng, 4)
    O = observable(h + h.conj().T)
    assert O.scale > 1.0
    Vo, Vb = _random_matrix(rng, 4), _random_matrix(rng, 4)
    F = rng.normal(size=(4, max(rank, 1))) + 1j * rng.normal(size=(4, max(rank, 1)))
    F /= np.linalg.norm(F)
    dm = F @ F.conj().T
    rho = QuantumState.pure(F[:, 0]) if rank == 0 else QuantumState.mixed(dm)

    def tr(U, W):
        return np.trace(O.matrix @ U @ dm @ W.conj().T).real

    hadamard = 0.5 * np.trace(O.matrix @ (Vo @ dm @ Vb.conj().T + Vb @ dm @ Vo.conj().T)).real
    assert sandwich(O, rho, Vo, Vb) * O.scale == pytest.approx(hadamard * O.scale, abs=1e-12)
    assert expectation(O, rho, Vo) == pytest.approx(tr(Vo, Vo) * O.scale, abs=1e-12)
    vbar = mixture_mean(mat)
    assert expected_value(mat, rho, O) == pytest.approx(tr(vbar, vbar), abs=1e-12)
    xi = 1.3
    lhs, _, _ = lemma_closeness_check(Vo, Vb, xi, O, rho)
    assert lhs == pytest.approx(abs(tr(Vo, Vo) - xi**2 * tr(Vb, Vb)), abs=1e-12)


def test_shot_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        shot_rng(-1, 0, 0)


def test_shot_rng_rejects_seed_beyond_128_bits():
    # the key holds 128 bits; a wider seed would alias the seed 2^128 below it
    shot_rng(2**128 - 1, 0, 0)
    with pytest.raises(ValueError, match="seed"):
        shot_rng(2**128 + 5, 0, 0)


@pytest.mark.parametrize("index", [-1, 2**64])
def test_shot_rng_rejects_stream_outside_64_bits(index):
    shot_rng(0, 2**64 - 1, 0)
    with pytest.raises(ValueError, match="stream"):
        shot_rng(0, index, 0)


@pytest.mark.parametrize("index", [-1, 2**64])
def test_shot_rng_rejects_shot_outside_64_bits(index):
    shot_rng(0, 0, 2**64 - 1)
    with pytest.raises(ValueError, match="shot"):
        shot_rng(0, 0, index)


def distinct_outcome_observable(dim=4):
    """An observable whose 2 dim signed outcomes +-lambda_i are all distinct."""
    q = np.linalg.qr(_random_matrix(np.random.default_rng(11), dim))[0]
    w = [0.9, 0.5, -0.3, 0.1] if dim == 4 else np.linspace(-0.95, 0.9, dim)
    return observable(q @ np.diag(w) @ q.conj().T)


@functools.cache
def _syk_cf_ensemble():
    """The sample-syk-cf benchmark's SYK(10) and its cf ensemble at chi 2, R 3 on default nodes, tau 1."""
    H = build_model("syk", N=10, seed=1)
    spec = spec_from_b("cf", 2, 3, default_initial_b(2, 3, "cf"))
    return H, materialize(mpf_ensemble(spec, H.L), H, 1.0 / lambda_norm(H))


def reference_sampler(kind, state, distinct=False):
    """(mat, rho, O) of a formula kind on toy3, or of "syk-cf", the sample-syk-cf benchmark's sampler.

    "syk-cf" has dim 32, 2,379 combinations and observable ZIIII.  The
    "rank8" state is a mixed state of rank 8; toy3 grows by two qubits to
    hold it (dim 16).  With ``distinct`` the observable has 2 dim distinct
    signed outcomes.
    """
    if kind == "syk-cf":
        H, mat = _syk_cf_ensemble()
        pauli, basis_index = "ZIIII", 0
    else:
        if state == "rank8":
            H = hamiltonian([pauli_string(p) for p in ("XIII", "ZZII", "IYII", "IZXI", "IIYX")], label="toy3+2")
            pauli = "ZXII"
        else:
            H = hamiltonian([pauli_string("XI"), pauli_string("ZZ"), pauli_string("IY")], label="toy3")
            pauli = "ZX"
        if kind == "cw":
            spec = cw_coefficients(2, 2)
        else:
            spec = spec_from_b(kind, 2, 2, default_initial_b(2, 2, kind))
        mat = materialize(mpf_ensemble(spec, H.L), H, 0.41)
        basis_index = 1
    if state == "pure":
        rho = QuantumState.basis(H.dim, basis_index)
    elif state == "mixed":
        v = np.linalg.qr(np.random.default_rng(8).normal(size=(H.dim, 2)))[0]
        rho = QuantumState.mixed(0.7 * np.outer(v[:, 0], v[:, 0]) + 0.3 * np.outer(v[:, 1], v[:, 1]))
        assert rho.factor.shape == (H.dim, 2)
    else:
        a = _random_matrix(np.random.default_rng(9), H.dim)[:, :8]
        dm = a @ a.conj().T
        rho = QuantumState.mixed(dm / np.trace(dm).real)
        assert rho.factor.shape == (H.dim, 8)
    return mat, rho, distinct_outcome_observable(H.dim) if distinct else observable(pauli_string(pauli))


@pytest.mark.parametrize("state", ["pure", "mixed", "rank8"])
@pytest.mark.parametrize("kind", ["cw", "matching", "cf", "syk-cf"])
def test_single_shot_matches_reference_bitwise(kind, state):
    mat, rho, O = reference_sampler(kind, state)
    sampler = prepare_sampler(mat, rho, O)
    tables = [(br.combo_cum, br.combo_signs, br.combo_amps) for br in sampler.branches]
    for table, reference in zip(tables, reference_branch_tables(mat, rho, O), strict=True):
        assert [(a.shape, a.tobytes()) for a in table] == [(a.shape, a.tobytes()) for a in reference]
    records = [single_shot(sampler, shot_rng(13, 2, j)) for j in range(600)]
    assert records == [reference_shot(sampler, shot_rng(13, 2, j)) for j in range(600)]
    assert len({rec.outcome for rec in records}) > 1
    assert {rec.sign_product for rec in records} == {-1, 1}


@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_run_estimator_signed_sum_matches_reference_loop(kind):
    mat, rho, O = reference_sampler(kind, "mixed")
    sampler = prepare_sampler(mat, rho, O)
    total = 0.0
    for j in range(500):
        rec = reference_shot(sampler, shot_rng(29, 1, j))
        total += rec.sign_product * rec.outcome
    estimate, mean = run_estimator(mat, rho, O, 500, 29, stream=1)
    assert mean == total / 500
    assert estimate == mat.resolution**2 * O.scale * mean


@pytest.mark.parametrize("state", ["pure", "mixed"])
@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_prepared_table_matches_enumeration(toy2q, kind, state):
    if kind == "cw":
        spec = cw_coefficients(1, 2)
    else:
        spec = spec_from_b(kind, 1, 2, default_initial_b(1, 2, kind))
    mat = materialize(mpf_ensemble(spec, toy2q.L), toy2q, 0.37)
    if state == "pure":
        rho = QuantumState.basis(toy2q.dim, 1)
    else:
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dm = a @ a.conj().T
        rho = QuantumState.mixed(dm / np.trace(dm).real)
    O = observable(pauli_string("ZX"))
    sampler = prepare_sampler(mat, rho, O)
    basis, factor = O.eigenvectors.conj().T, rho.factor
    combos = iter(enumerate_combos(mat))
    for mat_br, br in zip(mat.branches, sampler.branches):
        probs = np.diff(br.combo_cum, prepend=0.0)
        for i in range(len(probs)):
            p, sign, op = next(combos)
            assert probs[i] * mat_br.probability == pytest.approx(p, abs=1e-12)
            assert br.combo_signs[i] == sign
            assert np.max(np.abs(br.combo_amps[i] - basis @ op @ factor)) <= 1e-12
    assert next(combos, None) is None


@pytest.mark.parametrize("state", ["pure", "mixed"])
@pytest.mark.parametrize("kind", ["cw", "matching", "cf"])
def test_born_index_matches_reference_on_distinct_outcomes(kind, state):
    """Every Born index maps to its own outcome, so a neighbouring index cannot pass."""
    mat, rho, O = reference_sampler(kind, state, distinct=True)
    assert len(set(np.concatenate([O.eigenvalues, -O.eigenvalues]).tolist())) == 8
    sampler = prepare_sampler(mat, rho, O)
    records = [single_shot(sampler, shot_rng(13, 2, j)) for j in range(600)]
    references = [reference_shot(sampler, shot_rng(13, 2, j)) for j in range(600)]
    assert records == references
    # cw's two arms nearly agree, so these shots see only its ancilla-plus outcomes
    assert len({rec.outcome for rec in records}) == (4 if kind == "cw" else 8)
    terms = np.array([rec.sign_product * rec.outcome for rec in references])
    signs, outcomes = mpfsim.sampling._shots(sampler, mpfsim.sampling._uniforms(13, 2, 0, 600))
    batch = signs * outcomes
    assert batch.tobytes() == terms.tobytes()


EDGE_ADDRESSES = [
    (0, 0, 0, 9),
    (13, 2, 0, 600),
    (2**128 - 1, 2**64 - 1, 2**64 - 4, 4),
    (int(1.2e22), 2**64 - 1, 2**63, 3),
    (2**64, 1, 2**64 - 1, 1),
]


def _reference_uniforms(seed, stream, j0, n):
    return np.array([shot_rng(seed, stream, j0 + i).random(5) for i in range(n)])


@pytest.mark.parametrize("seed, stream, j0, n", EDGE_ADDRESSES)
def test_batch_uniforms_are_numpy_philox_at_edge_addresses(seed, stream, j0, n):
    u = mpfsim.sampling._uniforms(seed, stream, j0, n)
    assert u.shape == (n, 5)
    assert u.tobytes() == _reference_uniforms(seed, stream, j0, n).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**128 - 1),
    stream=st.integers(0, 2**64 - 1),
    j0=st.integers(0, 2**64 - 1),
    n=st.integers(1, 40),
)
@example(seed=0, stream=0, j0=2**64 - 1, n=1)
def test_batch_uniforms_are_numpy_philox(seed, stream, j0, n):
    n = min(n, 2**64 - j0)
    u = mpfsim.sampling._uniforms(seed, stream, j0, n)
    assert u.tobytes() == _reference_uniforms(seed, stream, j0, n).tobytes()


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("state", ["pure", "mixed", "rank8"])
@pytest.mark.parametrize("kind", ["cw", "matching", "cf", "syk-cf"])
def test_run_estimator_mean_is_the_reference_loop_at_batch_edges(kind, state, distinct):
    """Bitwise, so the terms must be added in shot order; +-1 outcomes add exactly in any order."""
    mat, rho, O = reference_sampler(kind, state, distinct)
    sampler = prepare_sampler(mat, rho, O)
    batch = sampler.batch_shots
    block = mpfsim.sampling._UNIFORM_BLOCK
    assert 1 < batch < block
    sizes = [1, batch - 1, batch, batch + 1, block + 1]
    terms = []
    for j in range(max(sizes)):
        rec = reference_shot(sampler, shot_rng(31, 4, j))
        terms.append(rec.sign_product * rec.outcome)
    for n in sizes:
        total = 0.0
        for term in terms[:n]:
            total += term
        assert run_estimator(mat, rho, O, n, 31, stream=4)[1] == total / n


def test_run_estimator_raises_when_a_batched_shot_differs_from_single_shot(cw_setup, monkeypatch):
    _, _, mat, O, rho = cw_setup
    single = mpfsim.sampling.single_shot

    def flipped(sampler, rng):
        rec = single(sampler, rng)
        return ShotRecord(outcome=rec.outcome, sign_product=-rec.sign_product)

    monkeypatch.setattr(mpfsim.sampling, "single_shot", flipped)
    with pytest.raises(RuntimeError, match=r"seed=5, stream=1, j=0\)"):
        run_estimator(mat, rho, O, 300, 5, stream=1)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_run_estimator_refuses_a_seed_outside_128_bits(cw_setup, seed):
    _, _, mat, O, rho = cw_setup
    with pytest.raises(ValueError, match="seed"):
        run_estimator(mat, rho, O, 10, seed)


@pytest.mark.parametrize("stream", [-1, 2**64])
def test_run_estimator_refuses_a_stream_outside_64_bits(cw_setup, stream):
    _, _, mat, O, rho = cw_setup
    with pytest.raises(ValueError, match="stream"):
        run_estimator(mat, rho, O, 10, 0, stream=stream)


def test_signed_sum_memory_is_flat_in_the_shot_count(cw_setup):
    _, _, mat, O, rho = cw_setup
    for sampler in (prepare_sampler(mat, rho, O), prepare_sampler(*reference_sampler("syk-cf", "pure"))):

        def peak(n):
            tracemalloc.start()
            try:
                mpfsim.sampling._signed_sum(sampler, n, 17, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the check shots' first call imports numpy.random
        small, large = peak(2_000), peak(200_000)
        assert abs(large - small) <= 64 * 1024
        assert large <= mpfsim.sampling.BATCH_BYTES


# Batched terms against the reference shot at every address, for each kind,
# state and observable; run in a fresh process under the given CPU-feature
# setting.
_BATCH_EQUALS_SINGLE_SHOT = r"""
import os
import sys

sys.path[:0] = sys.argv[1:3]
import numpy as np
import mpfsim.sampling as sampling
from platforms import cpu_features
from references import reference_shot
from test_sampling import reference_sampler

still_on = [f for f in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if cpu_features().get(f)]
if still_on:
    raise SystemExit(f"features not disabled: {still_on}")
for kind in ("cw", "matching", "cf", "syk-cf"):
    for state in ("pure", "mixed", "rank8"):
        for distinct in (False, True):
            mat, rho, O = reference_sampler(kind, state, distinct)
            sampler = sampling.prepare_sampler(mat, rho, O)
            signs, outcomes = sampling._shots(sampler, sampling._uniforms(13, 2, 0, 600))
            records = [reference_shot(sampler, sampling.shot_rng(13, 2, j)) for j in range(600)]
            reference = np.array([rec.sign_product * rec.outcome for rec in records])
            if (signs * outcomes).tobytes() != reference.tobytes():
                raise SystemExit(f"{kind} {state}: batch differs from reference_shot")
print("ok")
"""


@pytest.mark.parametrize(
    "disabled", ["X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"]
)
def test_batch_equals_single_shot_under_emulated_cpu_levels(disabled):
    """Complex abs and the reductions have SIMD loops, so equality must hold per level."""
    missing = [f for f in disabled.split() if not cpu_features().get(f)]
    if missing:
        pytest.skip(f"numpy found no {missing} on this machine")
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
    proc = subprocess.run(
        [sys.executable, "-c", _BATCH_EQUALS_SINGLE_SHOT, str(root / "src"), str(root / "tests")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    assert proc.stdout.strip() == "ok"
