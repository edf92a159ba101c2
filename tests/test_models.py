import itertools

import numpy as np
import pytest

from mpfsim.models import (
    anticommuting,
    build_model,
    free_fermion,
    heisenberg,
    hubbard_2x2,
    jw_annihilation,
    jw_majorana,
    syk,
)
from mpfsim.operators import lambda_norm, pauli_string, spectral_norm


def test_heisenberg_term_counts():
    assert heisenberg(2).L == 2  # the degenerate ring counts its pair once
    assert heisenberg(3).L == 4
    assert heisenberg(6).L == 7


def test_heisenberg_lambda_n3():
    # three bond terms of norm 3 (two-site exchange spectrum {-3, 1, 1, 1})
    # plus the field term of norm 2 * 3
    H = heisenberg(3)
    assert lambda_norm(H) == pytest.approx(15.0, abs=1e-10)


def test_anticommuting_structure():
    H = anticommuting()
    assert H.L == 8
    assert H.dim == 2**7
    assert lambda_norm(H) == pytest.approx(7 * np.sqrt(2) + 1, abs=1e-10)


def test_anticommuting_pairwise_anticommutation():
    H = anticommuting()
    for i, j in itertools.combinations(range(H.L), 2):
        anti = H.terms[i].matrix @ H.terms[j].matrix + H.terms[j].matrix @ H.terms[i].matrix
        assert np.max(np.abs(anti)) <= 1e-12


def test_jw_majorana_first_is_x():
    assert np.array_equal(jw_majorana(0, 6), pauli_string(["X", "I", "I"]))


@pytest.mark.parametrize("N", [4, 6, 8])
def test_jw_clifford_relations(N):
    gammas = [jw_majorana(p, N) for p in range(N)]
    eye = np.eye(2 ** (N // 2))
    for p in range(N):
        for q in range(N):
            anti = gammas[p] @ gammas[q] + gammas[q] @ gammas[p]
            expected = 2.0 * eye if p == q else 0.0 * eye
            assert np.max(np.abs(anti - expected)) < 1e-12


def test_jw_canonical_anticommutation():
    n_modes = 3
    a = [jw_annihilation(j, n_modes) for j in range(n_modes)]
    eye = np.eye(2**n_modes)
    for i in range(n_modes):
        for j in range(n_modes):
            car = a[i] @ a[j].conj().T + a[j].conj().T @ a[i]
            expected = eye if i == j else 0.0 * eye
            assert np.max(np.abs(car - expected)) < 1e-12
            nil = a[i] @ a[j] + a[j] @ a[i]
            assert np.max(np.abs(nil)) < 1e-12


def test_jw_majorana_index_validation():
    with pytest.raises(ValueError):
        jw_majorana(6, 6)
    with pytest.raises(ValueError):
        jw_majorana(0, 5)


def test_syk_shape_and_determinism():
    H1 = syk(10, seed=7)
    H2 = syk(10, seed=7)
    H3 = syk(10, seed=8)
    assert H1.dim == 2**5
    assert H1.L == 210  # C(10, 4)
    assert spectral_norm(H1.total.matrix - H2.total.matrix) == 0.0
    assert spectral_norm(H1.total.matrix - H3.total.matrix) > 1e-6


def test_syk_hermitian_and_traceless():
    H = syk(8, seed=3)
    total = H.total.matrix
    assert spectral_norm(total - total.conj().T) < 1e-12
    assert abs(np.trace(total)) <= 1e-10 * spectral_norm(total)


def test_syk_rejects_odd_or_large():
    with pytest.raises(ValueError):
        syk(7, seed=0)
    with pytest.raises(ValueError):
        syk(18, seed=0)


def test_hubbard_particle_number_symmetry():
    H = hubbard_2x2()
    assert H.dim == 2**8
    n_total = sum(
        jw_annihilation(j, 8).conj().T @ jw_annihilation(j, 8) for j in range(8)
    )
    comm = H.total.matrix @ n_total - n_total @ H.total.matrix
    assert spectral_norm(comm) <= 1e-10


def test_hubbard_coulomb_spectrum():
    H = hubbard_2x2()
    coulomb = [t for t in H.terms if t.label.startswith("coulomb")]
    assert len(coulomb) == 4
    for term in coulomb:
        eigs = np.unique(np.round(np.linalg.eigvalsh(term.matrix), 10))
        assert set(eigs.tolist()) == {0.0, 2.0}


def test_hubbard_term_count():
    # four bonds x two spins, four on-site terms, one chemical, one field
    assert hubbard_2x2().L == 8 + 4 + 1 + 1


def test_free_fermion_structure():
    h, spec = free_fermion(6)
    assert np.allclose(h.sum(axis=1), 2.0)  # ring degree
    assert spec.L == 2
    assert np.allclose(spec.terms[0].matrix + spec.terms[1].matrix, h)


def test_free_fermion_eigenvalue_extremes_n200():
    h, _ = free_fermion(200)
    eigs = np.linalg.eigvalsh(h)
    assert eigs[-1] == pytest.approx(2.0, abs=1e-10)
    assert eigs[0] == pytest.approx(-2.0, abs=1e-10)
    # full circulant spectrum 2 cos(2 pi k / n)
    expected = np.sort(2 * np.cos(2 * np.pi * np.arange(200) / 200))
    assert np.max(np.abs(np.sort(eigs) - expected)) < 1e-10


def test_model_config_dispatch():
    assert build_model("heisenberg", n=3).L == 4
    assert build_model("syk", N=8, seed=1).L == 70
    with pytest.raises(ValueError, match="seed"):
        build_model("syk", N=8)
    with pytest.raises(ValueError, match="unknown model"):
        build_model("ising")


def test_every_model_term_is_valid_hermitian():
    specs = [
        heisenberg(3),
        anticommuting(),
        syk(8, seed=5),
        free_fermion(10)[1],
    ]
    for spec in specs:
        for term in spec.terms:
            defect = spectral_norm(term.matrix - term.matrix.conj().T)
            assert defect <= 1e-12 * max(term.norm, 1e-300)
