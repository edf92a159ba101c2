"""Benchmark Hamiltonians: Heisenberg ring, anticommuting model, SYK,
2x2 Hubbard and free fermions, plus the Jordan-Wigner machinery the
fermionic models need.
"""

from __future__ import annotations

import itertools

import numpy as np

from .operators import HamiltonianSpec, hamiltonian, pauli_string

__all__ = [
    "build_model",
    "MODEL_NAMES",
    "heisenberg",
    "anticommuting",
    "jw_majorana",
    "jw_annihilation",
    "syk",
    "hubbard_2x2",
    "free_fermion",
]


def heisenberg(n: int) -> HamiltonianSpec:
    """Heisenberg ring with a transverse field: -sum_<ij> (XX+YY+ZZ) + 2 sum X.

    Periodic boundary conditions; for n = 2 the single pair is counted once.
    One Hermitian term per bond plus one field term (L = n + 1).
    """
    if n < 2:
        raise ValueError("need n >= 2 sites")
    bonds = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]

    def two_site(p: str, i: int, j: int) -> np.ndarray:
        labels = ["I"] * n
        labels[i] = p
        labels[j] = p
        return pauli_string(labels)

    def one_site(p: str, i: int) -> np.ndarray:
        labels = ["I"] * n
        labels[i] = p
        return pauli_string(labels)

    def terms():
        for i, j in bonds:
            yield f"bond({i},{j})", -(two_site("X", i, j) + two_site("Y", i, j) + two_site("Z", i, j))
        yield "field", 2.0 * sum(one_site("X", i) for i in range(n))

    return hamiltonian(terms(), label=f"heisenberg(n={n})")


def anticommuting() -> HamiltonianSpec:
    """Fixed 7-qubit model whose 8 terms pairwise anticommute.

    Terms i = 0..6 are Z^i (X+Y) I^(6-i); the eighth is Z^7.
    """

    def terms():
        for i in range(7):
            x = pauli_string(["Z"] * i + ["X"] + ["I"] * (6 - i))
            y = pauli_string(["Z"] * i + ["Y"] + ["I"] * (6 - i))
            yield f"anti[{i}]", x + y
        yield "anti[7]", pauli_string(["Z"] * 7)

    return hamiltonian(terms(), label="anticommuting")


def jw_majorana(p: int, n_majorana: int) -> np.ndarray:
    """Majorana operator gamma_p on n_majorana/2 qubits.

    gamma_(2j) = Z^j X_j, gamma_(2j+1) = Z^j Y_j; Hermitian with square one,
    and distinct operators anticommute.
    """
    if n_majorana < 2 or n_majorana % 2:
        raise ValueError("n_majorana must be a positive even integer")
    if not 0 <= p < n_majorana:
        raise ValueError(f"majorana index {p} out of range for n_majorana={n_majorana}")
    n_qubits = n_majorana // 2
    j, kind = divmod(p, 2)
    labels = ["Z"] * j + ["X" if kind == 0 else "Y"] + ["I"] * (n_qubits - j - 1)
    return pauli_string(labels)


def jw_annihilation(j: int, n_modes: int) -> np.ndarray:
    """Fermionic annihilation operator a_j = (gamma_2j + i gamma_2j+1) / 2."""
    return (jw_majorana(2 * j, 2 * n_modes) + 1j * jw_majorana(2 * j + 1, 2 * n_modes)) / 2.0


def syk(N: int, seed: int) -> HamiltonianSpec:
    """SYK model on N Majorana modes (N/2 qubits).

    Independent couplings J_pqrs ~ Normal(0, 3!/N^3) are drawn on ordered
    tuples p<q<r<s and extended totally antisymmetrically; summing the full
    antisymmetric tensor against the 1/(4*4!) prefactor collapses to
    (1/4) sum_{p<q<r<s} J_pqrs gamma_p gamma_q gamma_r gamma_s, one Hermitian
    term per ordered tuple (L = C(N,4)).
    """
    if N % 2 or N < 4:
        raise ValueError("N must be even and >= 4")
    if N > 16:
        raise ValueError("dense path supports N <= 16")
    return hamiltonian(_syk_terms(N, seed), label=f"syk(N={N},seed={seed})")


def _syk_terms(N: int, seed: int):
    """SYK's ``(label, matrix)`` pairs, one coupling drawn per pair as it is made."""
    rng = np.random.default_rng(seed)
    gammas = [jw_majorana(p, N) for p in range(N)]
    sigma = np.sqrt(6.0 / N**3)
    for p, q, r, s in itertools.combinations(range(N), 4):
        J = rng.normal(0.0, sigma)
        yield f"J({p},{q},{r},{s})", 0.25 * J * (gammas[p] @ gammas[q] @ gammas[r] @ gammas[s])


HUBBARD_T, HUBBARD_U, HUBBARD_MU, HUBBARD_H = 2.0, 2.0, 0.25, 0.5


def hubbard_2x2() -> HamiltonianSpec:
    """Spinful Hubbard model on a 2x2 plaquette (8 qubits) via Jordan-Wigner.

    Sites are numbered row-major (0 1 / 2 3) with the four plaquette edges as
    bonds; orbital (site, spin) is qubit 2*site + spin, so the two spins of a
    site sit adjacently.  Hopping HUBBARD_T, on-site repulsion HUBBARD_U,
    chemical potential HUBBARD_MU and Zeeman field HUBBARD_H.
    """
    n_sites = 4
    bonds = [(0, 1), (2, 3), (0, 2), (1, 3)]
    n_modes = 2 * n_sites

    a = [jw_annihilation(j, n_modes) for j in range(n_modes)]

    def num(p: int) -> np.ndarray:
        return a[p].conj().T @ a[p]

    def terms():
        for i, j in bonds:
            for spin, spin_name in ((0, "up"), (1, "dn")):
                p, q = 2 * i + spin, 2 * j + spin
                hop = a[p].conj().T @ a[q]
                yield f"hop({i},{j},{spin_name})", -HUBBARD_T * (hop + hop.conj().T)
        for i in range(n_sites):
            yield f"coulomb({i})", HUBBARD_U * (num(2 * i) @ num(2 * i + 1))
        yield "chemical", -HUBBARD_MU * sum(num(p) for p in range(n_modes))
        yield "field", -HUBBARD_H * sum(num(2 * i) - num(2 * i + 1) for i in range(n_sites))

    return hamiltonian(terms(), label="hubbard")


def free_fermion(n_sites: int) -> tuple[np.ndarray, HamiltonianSpec]:
    """Free fermions on a ring: the n x n single-particle hopping matrix.

    Returns ``(h, spec)`` where ``h`` is the circulant nearest-neighbor
    matrix and ``spec`` splits it into even-bond and odd-bond parts (each a
    direct sum of 2x2 blocks, L = 2).  Product formulas approximate the
    propagator exp(-i h t), reachable as ``exact_evolution(spec, t)``.
    """
    if n_sites < 3:
        raise ValueError("need n_sites >= 3")

    def bonds(first: int) -> np.ndarray:
        """The hopping matrix of the bonds (i, i + 1) with i = first, first + 2, ..."""
        out = np.zeros((n_sites, n_sites))
        for i in range(first, n_sites, 2):
            j = (i + 1) % n_sites
            out[i, j] += 1.0
            out[j, i] += 1.0
        return out

    def terms():
        yield "even-bonds", bonds(0)
        yield "odd-bonds", bonds(1)

    return bonds(0) + bonds(1), hamiltonian(terms(), label=f"free_fermion(n={n_sites})")


MODEL_NAMES = ("heisenberg", "anticommuting", "syk", "hubbard", "free_fermion")


def build_model(name: str, n: int = 6, N: int = 10, seed: int | None = None) -> HamiltonianSpec:
    """The zoo model ``name``: ``n`` heisenberg or free-fermion sites, ``N`` SYK majoranas.

    SYK needs an explicit coupling ``seed``; the other models ignore it.
    """
    if name == "heisenberg":
        return heisenberg(n)
    if name == "anticommuting":
        return anticommuting()
    if name == "syk":
        if seed is None:
            raise ValueError("syk requires an explicit coupling seed")
        return syk(N, seed)
    if name == "hubbard":
        return hubbard_2x2()
    if name == "free_fermion":
        return free_fermion(n)[1]
    raise ValueError(f"unknown model {name!r}; choose from {MODEL_NAMES}")
