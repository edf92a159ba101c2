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
from mpfsim.operators import lambda_norm, observable, pauli_string, spectral_norm
from references import reference_term_norm

ZOO = {
    "heisenberg6": lambda: heisenberg(6),
    "anticommuting": anticommuting,
    "syk10": lambda: syk(10, seed=3),
    "syk8": lambda: syk(8, seed=5),
    "hubbard": hubbard_2x2,
    "free_fermion200": lambda: free_fermion(200)[1],
    "free_fermion8": lambda: free_fermion(8)[1],
    "free_fermion7": lambda: free_fermion(7)[1],
}


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


@pytest.mark.parametrize("model", sorted(ZOO))
def test_term_norms_and_lambda_are_the_eigenvalue_reference_bitwise(model):
    H = ZOO[model]()
    norms = [reference_term_norm(term.matrix) for term in H.terms]
    assert [term.norm for term in H.terms] == norms
    assert lambda_norm(H) == float(sum(norms))


@pytest.mark.parametrize("model", sorted(ZOO))
def test_rotation_terms_hold_no_eigenbasis_and_the_total_does(model):
    H = ZOO[model]()
    for term in H.terms:
        if term.rotation is not None:
            assert term.eigenvalues is None and term.eigenvectors is None
            assert term.norm == float(np.max(term.rotation[1]))
        else:
            assert term.eigenvalues is not None and term.eigenvectors is not None
    assert H.total.eigenvalues is not None and H.total.eigenvectors is not None
    if not model.startswith(("heisenberg", "free_fermion7")):
        assert all(term.rotation is not None for term in H.terms)


def test_a_rotation_observable_keeps_its_eigenbasis():
    # ZIIII is itself a row rotation; the sampler reads the observable's basis
    O = observable(pauli_string("ZIIII"))
    assert O.eigenvectors.shape == (32, 32)
    assert sorted(O.eigenvalues.tolist()) == [-1.0] * 16 + [1.0] * 16


def test_syk_build_runs_one_eigh_and_no_svd(monkeypatch):
    calls = {"eigh": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    # np.linalg.norm(a, 2) reaches the SVD through numpy's own module namespace
    for module in {np.linalg, getattr(np.linalg, "_linalg", np.linalg)}:
        monkeypatch.setattr(module, "svd", counted("svd", module.svd))
    H = syk(8, seed=5)
    assert calls == {"eigh": 1, "svd": 0}
    assert H.total.eigenvectors is not None
