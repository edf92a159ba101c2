"""Benchmark Hamiltonians: Heisenberg ring, anticommuting model, SYK,
2x2 Hubbard and free fermions, plus the Jordan-Wigner machinery the
fermionic models need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .operators import HamiltonianSpec, hamiltonian, hermitian_term, pauli_string

__all__ = [
    "ModelConfig",
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


def heisenberg(n: int, grouping: str = "bond") -> HamiltonianSpec:
    """Heisenberg ring with a transverse field: -sum_<ij> (XX+YY+ZZ) + 2 sum X.

    Periodic boundary conditions; for n = 2 the single pair is counted once.
    ``grouping="bond"`` keeps one Hermitian term per bond plus one field term
    (L = n + 1); ``grouping="pauli"`` splits every Pauli string into its own
    term.
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

    if grouping == "bond":
        terms = [
            hermitian_term(
                -(two_site("X", i, j) + two_site("Y", i, j) + two_site("Z", i, j)),
                label=f"bond({i},{j})",
            )
            for i, j in bonds
        ]
        terms.append(hermitian_term(2.0 * sum(one_site("X", i) for i in range(n)), label="field"))
    elif grouping == "pauli":
        terms = [
            hermitian_term(-two_site(p, i, j), label=f"{p}{p}({i},{j})")
            for i, j in bonds
            for p in "XYZ"
        ]
        terms.extend(hermitian_term(2.0 * one_site("X", i), label=f"X({i})") for i in range(n))
    else:
        raise ValueError(f"unknown grouping {grouping!r}")
    return hamiltonian(terms, label=f"heisenberg(n={n})")


def anticommuting() -> HamiltonianSpec:
    """Fixed 7-qubit model whose 8 terms pairwise anticommute.

    Terms i = 0..6 are Z^i (X+Y) I^(6-i); the eighth is Z^7.
    """
    terms = []
    for i in range(7):
        x = pauli_string(["Z"] * i + ["X"] + ["I"] * (6 - i))
        y = pauli_string(["Z"] * i + ["Y"] + ["I"] * (6 - i))
        terms.append(hermitian_term(x + y, label=f"anti[{i}]"))
    terms.append(hermitian_term(pauli_string(["Z"] * 7), label="anti[7]"))
    return hamiltonian(terms, label="anticommuting")


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
    rng = np.random.default_rng(seed)
    gammas = [jw_majorana(p, N) for p in range(N)]
    sigma = np.sqrt(6.0 / N**3)
    terms = []
    for p, q, r, s in itertools.combinations(range(N), 4):
        J = rng.normal(0.0, sigma)
        mat = 0.25 * J * (gammas[p] @ gammas[q] @ gammas[r] @ gammas[s])
        terms.append(hermitian_term(mat, label=f"J({p},{q},{r},{s})"))
    return hamiltonian(terms, label=f"syk(N={N},seed={seed})")


def _hubbard_spec(
    n_sites: int,
    bonds: list[tuple[int, int]],
    t: float,
    U: float,
    mu: float,
    h: float,
    ordering: str = "site-major",
) -> HamiltonianSpec:
    """Spinful Hubbard Hamiltonian on arbitrary bonds via Jordan-Wigner.

    ``ordering`` fixes the qubit index of orbital (site, spin): site-major
    packs the two spins of a site adjacently; spin-major packs all ups first.
    Different orderings change Pauli weights but not the spectrum.
    """
    n_modes = 2 * n_sites

    def orb(site: int, spin: int) -> int:
        if ordering == "site-major":
            return 2 * site + spin
        if ordering == "spin-major":
            return site + spin * n_sites
        raise ValueError(f"unknown ordering {ordering!r}")

    a = [jw_annihilation(j, n_modes) for j in range(n_modes)]

    def num(p: int) -> np.ndarray:
        return a[p].conj().T @ a[p]

    terms = []
    for i, j in bonds:
        for spin, spin_name in ((0, "up"), (1, "dn")):
            p, q = orb(i, spin), orb(j, spin)
            hop = a[p].conj().T @ a[q]
            terms.append(hermitian_term(-t * (hop + hop.conj().T), label=f"hop({i},{j},{spin_name})"))
    for i in range(n_sites):
        terms.append(
            hermitian_term(U * (num(orb(i, 0)) @ num(orb(i, 1))), label=f"coulomb({i})")
        )
    total_n = sum(num(p) for p in range(n_modes))
    terms.append(hermitian_term(-mu * total_n, label="chemical"))
    spin_imbalance = sum(num(orb(i, 0)) - num(orb(i, 1)) for i in range(n_sites))
    terms.append(hermitian_term(-h * spin_imbalance, label="field"))
    return hamiltonian(terms, label="hubbard")


def hubbard_2x2(
    t: float = 2.0, U: float = 2.0, mu: float = 0.25, h: float = 0.5
) -> HamiltonianSpec:
    """Spinful Hubbard model on a 2x2 plaquette (8 qubits).

    Sites are numbered row-major (0 1 / 2 3) with the four plaquette edges as
    bonds; orbital ordering is site-major, spin-minor.
    """
    bonds = [(0, 1), (2, 3), (0, 2), (1, 3)]
    return _hubbard_spec(4, bonds, t=t, U=U, mu=mu, h=h, ordering="site-major")


def free_fermion(n_sites: int) -> tuple[np.ndarray, HamiltonianSpec]:
    """Free fermions on a ring: the n x n single-particle hopping matrix.

    Returns ``(h, spec)`` where ``h`` is the circulant nearest-neighbor
    matrix and ``spec`` splits it into even-bond and odd-bond parts (each a
    direct sum of 2x2 blocks, L = 2).  Product formulas approximate the
    propagator exp(-i h t), reachable as ``exact_evolution(spec, t)``.
    """
    if n_sites < 3:
        raise ValueError("need n_sites >= 3")
    h = np.zeros((n_sites, n_sites))
    even = np.zeros_like(h)
    odd = np.zeros_like(h)
    for i in range(n_sites):
        j = (i + 1) % n_sites
        h[i, j] += 1.0
        h[j, i] += 1.0
        target = even if i % 2 == 0 else odd
        target[i, j] += 1.0
        target[j, i] += 1.0
    spec = hamiltonian(
        [hermitian_term(even, label="even-bonds"), hermitian_term(odd, label="odd-bonds")],
        label=f"free_fermion(n={n_sites})",
    )
    return h, spec


MODEL_NAMES = ("heisenberg", "anticommuting", "syk", "hubbard", "free_fermion")


@dataclass(frozen=True)
class ModelConfig:
    """Declarative model selection for the CLI and experiment configs."""

    name: str
    n: int = 6  # heisenberg sites / free-fermion sites (200 for the paper-scale run)
    N: int = 10  # SYK majorana count
    seed: int | None = None  # SYK coupling seed; mandatory for syk

    def __post_init__(self):
        if self.name not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.name!r}; choose from {MODEL_NAMES}")
        if self.name == "syk" and self.seed is None:
            raise ValueError("syk requires an explicit coupling seed")


def build_model(cfg: ModelConfig) -> HamiltonianSpec:
    if cfg.name == "heisenberg":
        return heisenberg(cfg.n)
    if cfg.name == "anticommuting":
        return anticommuting()
    if cfg.name == "syk":
        return syk(cfg.N, cfg.seed)
    if cfg.name == "hubbard":
        return hubbard_2x2()
    if cfg.name == "free_fermion":
        return free_fermion(cfg.n)[1]
    raise ValueError(f"unknown model {cfg.name!r}")
