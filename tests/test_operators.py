import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpfsim.operators
from mpfsim.operators import (
    QuantumState,
    exact_evolution,
    exact_evolutions,
    expectation,
    hamiltonian,
    hermitian_term,
    lambda_norm,
    observable,
    pauli_string,
    spectral_distance,
)

X = pauli_string("X")
Y = pauli_string("Y")
Z = pauli_string("Z")
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def herm_expm(h, theta):
    """exp(-i theta h): a rotation term by the step formula, any other term in its eigenbasis.

    Row i of a rotation term's exponential is cos(theta |v_i|) e_i - i sin(theta |v_i|) (v_i/|v_i|) e_cols_i.
    """
    if h.rotation is not None:
        cols, mag, phase = h.rotation
        u = np.diag(np.cos(theta * mag)).astype(complex)
        u[np.arange(h.dim), cols] += -1j * np.sin(theta * mag) * phase
        return u
    phases = np.exp(-1j * theta * h.eigenvalues)
    return (h.eigenvectors * phases[None, :]) @ h.eigenvectors.conj().T


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_pauli_string_single_z():
    assert np.array_equal(pauli_string(["Z"]), np.diag([1.0 + 0j, -1.0]))


def test_pauli_string_identity_pair():
    assert np.array_equal(pauli_string(["I", "I"]), np.eye(4, dtype=complex))


def test_pauli_string_xz_kronecker():
    # direct 4x4 Kronecker product written out by hand
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    xz = pauli_string(["X", "Z"])
    assert np.array_equal(xz, expected)
    assert np.allclose(xz @ xz, np.eye(4))


def test_pauli_string_rejects_bad_label():
    with pytest.raises(ValueError):
        pauli_string(["Q"])
    with pytest.raises(ValueError):
        pauli_string([])


def test_hermitian_term_rejects_nonhermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_term(bad)


def _defect_at(factor):
    """|+><+| on two qubits with an entrywise Hermiticity defect of factor * HERMITICITY_RTOL * max|A|.

    max|A| = 1/4 is a quarter of the spectral norm, so a spectral-norm-relative
    check would accept both factors used below.
    """
    a = np.full((4, 4), 0.25, dtype=complex)
    a[0, 1] += factor * mpfsim.operators.HERMITICITY_RTOL * 0.25
    return a


def test_hermiticity_tolerance_is_relative_to_the_largest_entry():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_term(_defect_at(1.01))
    with pytest.raises(ValueError, match="not Hermitian"):
        QuantumState.mixed(_defect_at(1.01))
    assert hermitian_term(_defect_at(0.99)).dim == 4
    assert QuantumState.mixed(_defect_at(0.99)).dim == 4


def test_empty_matrix_is_refused():
    with pytest.raises(ValueError):
        hermitian_term(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="unit trace"):
        QuantumState.mixed(np.zeros((0, 0)))


def test_hermitian_term_leaves_the_callers_array_writable():
    m = np.diag([1.0, -1.0]).astype(complex)
    term = hermitian_term(m)
    m[0, 0] = 2.0
    assert term.matrix[0, 0] == 1.0
    assert not term.matrix.flags.writeable


def test_hermitian_term_norm_and_reconstruction():
    m = random_hermitian(8, seed=3)
    term = hermitian_term(m)
    w, v = term.eigenvalues, term.eigenvectors
    assert term.norm == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(m))), abs=1e-10)
    assert np.linalg.norm((v * w) @ v.conj().T - m, 2) < 1e-10


def test_herm_expm_zero_angle_is_identity():
    term = hermitian_term(random_hermitian(6, seed=1))
    assert np.allclose(herm_expm(term, 0.0), np.eye(6), atol=1e-14)


def test_herm_expm_pauli_z_pi():
    # diag(e^{-i pi}, e^{i pi}) = -I, by direct 2x2 evaluation
    term = hermitian_term(Z)
    assert np.allclose(herm_expm(term, np.pi), -np.eye(2), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False),
    b=st.floats(-10, 10, allow_nan=False),
    seed=st.integers(0, 10),
)
def test_herm_expm_group_property_and_unitarity(a, b, seed):
    term = hermitian_term(random_hermitian(4, seed))
    ua, ub, uab = herm_expm(term, a), herm_expm(term, b), herm_expm(term, a + b)
    assert np.linalg.norm(ua @ ua.conj().T - np.eye(4), 2) <= 1e-12
    assert np.linalg.norm(ua @ ub - uab, 2) <= 1e-11


def test_exact_evolution_zero_time():
    H = hamiltonian([X, Y])
    assert np.allclose(exact_evolution(H, 0.0), np.eye(2), atol=1e-14)


def test_exact_evolution_single_term_matches_herm_expm():
    m = random_hermitian(4, seed=5)
    H = hamiltonian([m])
    assert np.allclose(exact_evolution(H, 0.73), herm_expm(H.terms[0], 0.73), atol=1e-13)


def test_exact_evolution_commuting_terms_factorizes():
    d1 = np.diag([0.3, -1.2, 0.5, 2.0]).astype(complex)
    d2 = np.diag([1.0, 0.25, -0.75, 0.1]).astype(complex)
    H = hamiltonian([d1, d2])
    t = 0.9
    product = herm_expm(H.terms[0], t) @ herm_expm(H.terms[1], t)
    assert spectral_distance(exact_evolution(H, t), product) < 1e-11


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_exact_evolutions_slices_equal_single_time_calls(dim):
    H = hamiltonian([random_hermitian(dim, seed=dim), random_hermitian(dim, seed=dim + 1)])
    ts = np.logspace(-3, 1, 9)
    batched = exact_evolutions(H, ts)
    assert batched.shape == (len(ts), dim, dim)
    for i, t in enumerate(ts):
        assert np.array_equal(batched[i], herm_expm(H.total, t))
        assert np.array_equal(batched[i], exact_evolution(H, t))


def test_exact_evolution_dimension_cap(monkeypatch):
    monkeypatch.setattr(mpfsim.operators, "MAX_DIM", 2)
    H = hamiltonian([np.eye(4, dtype=complex)])
    with pytest.raises(ValueError, match="maximum"):
        exact_evolution(H, 1.0)


def test_spectral_distance_basics():
    a = random_hermitian(5, seed=2)
    assert spectral_distance(a, a) == 0.0
    assert spectral_distance(np.eye(3), -np.eye(3)) == pytest.approx(2.0, abs=1e-14)
    assert spectral_distance(np.diag([1.0, 0.0]), np.diag([0.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        spectral_distance(np.eye(2), np.eye(3))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_spectral_distance_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3))
    assert spectral_distance(a, c) <= spectral_distance(a, b) + spectral_distance(b, c) + 1e-10


def test_expectation_computational_basis():
    O = observable(Z)
    rho = QuantumState.basis(2, 0)
    assert expectation(O, rho, np.eye(2)) == pytest.approx(1.0, abs=1e-12)
    assert expectation(O, rho, X) == pytest.approx(-1.0, abs=1e-12)
    # Hadamard sends |0> to (|0>+|1>)/sqrt(2), whose Z expectation vanishes
    assert expectation(O, rho, HAD) == pytest.approx(0.0, abs=1e-12)


def test_expectation_density_matrix_path_agrees():
    O = observable(random_hermitian(4, seed=9))
    rng = np.random.default_rng(4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    pure = expectation(O, QuantumState.pure(v), U)
    mixed = expectation(O, QuantumState.mixed(np.outer(v, v.conj())), U)
    assert pure == pytest.approx(mixed, abs=1e-12)


def test_observable_rescales_and_records():
    O = observable(2.0 * Z)
    assert O.scale == pytest.approx(2.0)
    assert np.linalg.norm(O.matrix, 2) <= 1.0 + 1e-12
    assert np.allclose(O.scale * O.matrix, 2.0 * Z)
    # reconstruction from the eigensystem
    rebuilt = (O.eigenvectors * O.eigenvalues) @ O.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - O.matrix, 2) < 1e-10


def test_observable_projector_completeness():
    O = observable(random_hermitian(6, seed=11))
    v = O.eigenvectors
    assert np.linalg.norm(v @ v.conj().T - np.eye(6), 2) < 1e-12


def test_lambda_norm():
    assert lambda_norm(hamiltonian([X])) == pytest.approx(1.0, abs=1e-12)
    assert lambda_norm(hamiltonian([2.5 * X, Z])) == pytest.approx(3.5, abs=1e-12)


def test_quantum_state_validation_and_conversion():
    with pytest.raises(ValueError):
        QuantumState.pure(np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuantumState.mixed(np.diag([0.7, 0.7]))
    s = QuantumState.basis(2, 1)
    assert np.allclose(s.as_density(), np.diag([0.0, 1.0]))
    m = QuantumState.mixed(np.diag([0.5, 0.5]))
    assert s.factor.shape == (2, 1) and m.factor.shape == (2, 2)
    assert not m.factor.flags.writeable


def test_quantum_state_rejects_non_finite_states():
    with pytest.raises(ValueError, match="unit norm"):
        QuantumState.pure([np.nan, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        QuantumState.mixed([[np.inf, 0.0], [0.0, 0.5]])


def test_quantum_state_rejects_non_hermitian_density():
    # Unit trace, and the lower triangle that eigh reads is I/2; not a density.
    with pytest.raises(ValueError, match="not Hermitian"):
        QuantumState.mixed([[0.5, 0.9], [0.0, 0.5]])
    # A defect inside HERMITICITY_RTOL is accepted.
    dm = np.diag([0.5, 0.5]).astype(complex)
    dm[0, 1] = 1e-15
    assert QuantumState.mixed(dm).factor.shape == (2, 2)
