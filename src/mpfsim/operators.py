"""Dense complex operator algebra.

Everything downstream works with dense ``numpy`` arrays: Pauli strings,
Hermitian Hamiltonian terms with cached eigendecompositions, exact time
evolution, spectral distances, observables and states.  The benchmark
models cap out at 8 qubits / a 200-dimensional single-particle matrix, so
dense linear algebra is the right regime; there is deliberately no sparse
or tensor-network machinery here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAULI",
    "HermitianTerm",
    "HamiltonianSpec",
    "Observable",
    "QuantumState",
    "pauli_string",
    "hermitian_term",
    "hamiltonian",
    "herm_expm",
    "exact_evolution",
    "spectral_distance",
    "expectation",
    "lambda_norm",
]

HERMITICITY_RTOL = 1e-12
DEFAULT_MAX_DIM = 2**10

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_string(labels: list[str] | str) -> np.ndarray:
    """Kronecker product of single-qubit Pauli matrices.

    ``labels`` is a sequence over  {I, X, Y, Z}; the first label acts on the
    leftmost (most significant) qubit.  Returns a ``2**n x 2**n`` complex
    array.
    """
    if len(labels) == 0:
        raise ValueError("pauli_string requires at least one label")
    try:
        mats = [PAULI[l] for l in labels]
    except KeyError as exc:
        raise ValueError(f"unknown Pauli label {exc.args[0]!r}") from exc
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class HermitianTerm:
    """One Hermitian Hamiltonian term with its eigendecomposition.

    The decomposition is computed once at construction and reused for every
    exponential of this term; instances are immutable.
    """

    matrix: np.ndarray
    label: str
    norm: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermitian_term(matrix: np.ndarray, label: str = "") -> HermitianTerm:
    """Validate and wrap a Hermitian matrix.

    Inputs failing the Hermiticity tolerance are rejected rather than
    symmetrized: silent symmetrization would hide model-construction bugs.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"term {label!r}: matrix must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"term {label!r}: non-finite entries")
    scale = spectral_norm(matrix)
    herm_defect = spectral_norm(matrix - matrix.conj().T)
    if herm_defect > HERMITICITY_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"term {label!r}: not Hermitian within {HERMITICITY_RTOL:g} relative "
            f"(defect {herm_defect:.3e}, norm {scale:.3e})"
        )
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"term {label!r}: eigendecomposition failed: {exc}") from exc
    w = w.astype(float)
    w.setflags(write=False)
    v.setflags(write=False)
    matrix.setflags(write=False)
    return HermitianTerm(
        matrix=matrix,
        label=label,
        norm=float(np.max(np.abs(w))) if w.size else 0.0,
        eigenvalues=w,
        eigenvectors=v,
    )


@dataclass(frozen=True)
class HamiltonianSpec:
    """Ordered decomposition H = sum_k h_k of dense Hermitian terms.

    ``total`` carries the eigendecomposition of the summed matrix, used by
    :func:`exact_evolution`.
    """

    terms: tuple[HermitianTerm, ...]
    dim: int
    total: HermitianTerm = field(repr=False)

    @property
    def L(self) -> int:
        return len(self.terms)


def hamiltonian(terms, label: str = "H") -> HamiltonianSpec:
    """Assemble a :class:`HamiltonianSpec` from matrices or HermitianTerms."""
    wrapped = []
    for i, t in enumerate(terms):
        if isinstance(t, HermitianTerm):
            wrapped.append(t)
        else:
            wrapped.append(hermitian_term(t, label=f"{label}[{i}]"))
    if not wrapped:
        raise ValueError("a Hamiltonian needs at least one term")
    dim = wrapped[0].dim
    if any(t.dim != dim for t in wrapped):
        raise ValueError("all terms must share one dimension")
    total = hermitian_term(sum(t.matrix for t in wrapped), label=label)
    return HamiltonianSpec(terms=tuple(wrapped), dim=dim, total=total)


def herm_expm(h: HermitianTerm, theta: float) -> np.ndarray:
    """exp(-i * theta * h) via the cached eigendecomposition of ``h``."""
    phases = np.exp(-1j * theta * h.eigenvalues)
    return (h.eigenvectors * phases[None, :]) @ h.eigenvectors.conj().T


def exact_evolution(H: HamiltonianSpec, t: float, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Exact propagator exp(-i H t) of the summed Hamiltonian."""
    return exact_evolutions(H, [t], max_dim)[0]


def exact_evolutions(H: HamiltonianSpec, ts: np.ndarray, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Batched exact propagators, shape ``(len(ts), dim, dim)``.

    Slice i equals ``herm_expm(H.total, ts[i])`` bit for bit.
    """
    if H.dim > max_dim:
        raise ValueError(f"dimension {H.dim} exceeds configured maximum {max_dim}")
    w, v = H.total.eigenvalues, H.total.eigenvectors
    phases = np.exp(-1j * np.asarray(ts, float)[:, None] * w)
    return (v * phases[:, None, :]) @ v.conj().T


def spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator distance ||a - b|| (largest singular value of the difference)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return spectral_norm(a - b)


@dataclass(frozen=True)
class Observable:
    """Hermitian observable, rescaled so the stored matrix has norm <= 1.

    The sampling theorems require ``||O|| <= 1``; observables violating it
    are rescaled on construction and the factor recorded in ``scale`` so
    estimators can multiply results back to original units.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scale: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def original_matrix(self) -> np.ndarray:
        return self.scale * self.matrix


def observable(matrix: np.ndarray, label: str = "O") -> Observable:
    term = hermitian_term(matrix, label=label)
    scale = max(1.0, term.norm)
    return Observable(
        matrix=term.matrix / scale,
        eigenvalues=term.eigenvalues / scale,
        eigenvectors=term.eigenvectors,
        scale=scale,
    )


class QuantumState:
    """Pure state vector or density matrix; the two forms interconvert."""

    def __init__(self, vector: np.ndarray | None = None, density: np.ndarray | None = None):
        if (vector is None) == (density is None):
            raise ValueError("provide exactly one of vector or density")
        if vector is not None:
            vector = np.asarray(vector, dtype=complex).ravel()
            nrm = np.linalg.norm(vector)
            if abs(nrm - 1.0) > 1e-10:
                raise ValueError(f"pure state must have unit norm, got {nrm}")
            vector.setflags(write=False)
        else:
            density = np.asarray(density, dtype=complex)
            if abs(np.trace(density) - 1.0) > 1e-10:
                raise ValueError("density matrix must have unit trace")
            w = np.linalg.eigvalsh(density)
            if np.min(w) < -1e-10:
                raise ValueError(f"density matrix not positive semidefinite (min eig {np.min(w):.3e})")
            density.setflags(write=False)
        self._vector = vector
        self._density = density

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        return cls(vector=vector)

    @classmethod
    def basis(cls, dim: int, index: int = 0) -> "QuantumState":
        v = np.zeros(dim, dtype=complex)
        v[index] = 1.0
        return cls(vector=v)

    @classmethod
    def mixed(cls, density: np.ndarray) -> "QuantumState":
        return cls(density=density)

    @property
    def is_pure(self) -> bool:
        return self._vector is not None

    @property
    def dim(self) -> int:
        return self._vector.shape[0] if self._vector is not None else self._density.shape[0]

    @property
    def vector(self) -> np.ndarray:
        if self._vector is None:
            raise ValueError("state is a density matrix; no vector form")
        return self._vector

    def as_density(self) -> np.ndarray:
        if self._density is not None:
            return self._density
        return np.outer(self._vector, self._vector.conj())


def expectation(O: Observable, rho: QuantumState, V: np.ndarray) -> float:
    """Re tr(O V rho V†), in the observable's original units."""
    V = np.asarray(V)
    if V.shape != (O.dim, O.dim) or rho.dim != O.dim:
        raise ValueError("dimension mismatch between observable, state and operator")
    if rho.is_pure:
        w = V @ rho.vector
        val = np.vdot(w, O.matrix @ w)
    else:
        val = np.trace(O.matrix @ V @ rho.as_density() @ V.conj().T)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real) * O.scale


def lambda_norm(H: HamiltonianSpec) -> float:
    """Sum of term spectral norms (the dimensionless-time normalizer)."""
    return float(sum(t.norm for t in H.terms))
