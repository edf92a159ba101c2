"""Dense complex operator algebra.

Everything downstream works with dense ``numpy`` arrays: Pauli strings,
Hermitian Hamiltonian terms (each with its row rotation or, failing that,
its eigendecomposition), exact time evolution, spectral distances,
observables and states.  The benchmark models cap out at 8 qubits / a
200-dimensional single-particle matrix, so dense linear algebra is the
right regime; there is deliberately no sparse or tensor-network machinery
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    "observable",
    "exact_evolution",
    "spectral_distance",
    "expectation",
    "sandwich",
    "lambda_norm",
]

# Largest allowed entrywise defect max|A - A^dagger|, relative to max|A|.
# max|A| <= ||A||_2 <= d max|A|, so this is within a factor of d of a
# spectral-norm-relative tolerance.
HERMITICITY_RTOL = 1e-12
MAX_DIM = 2**10

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
    """One Hermitian Hamiltonian term with what its exponential needs.

    ``rotation`` is ``(cols, |v|, v/|v|)`` when every row of the matrix holds
    at most one nonzero (see :func:`_row_rotation`), else None.  The schedule
    step loop exponentiates a rotation term without an eigenbasis, so such a
    term holds ``eigenvalues = eigenvectors = None`` and ``norm = max|v|``;
    any other term holds its eigendecomposition, computed once.  The total of
    a :class:`HamiltonianSpec` always holds its eigendecomposition.
    Instances are immutable.
    """

    matrix: np.ndarray
    label: str
    norm: float
    eigenvalues: np.ndarray | None
    eigenvectors: np.ndarray | None
    rotation: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _hermitian(a, what: str) -> np.ndarray:
    """``a`` as a complex array: square, finite, Hermitian within HERMITICITY_RTOL.

    The defect is entrywise, max|a - a^dagger| against max|a|.  Inputs failing
    the tolerance are rejected rather than symmetrized: silent symmetrization
    would hide construction bugs.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what}: matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what}: non-finite entries")
    scale = np.max(np.abs(a), initial=0.0)
    herm_defect = np.max(np.abs(a - a.conj().T), initial=0.0)
    if herm_defect > HERMITICITY_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"{what}: not Hermitian within {HERMITICITY_RTOL:g} relative "
            f"(defect {herm_defect:.3e}, largest entry {scale:.3e})"
        )
    return a


def _row_rotation(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(cols, |v|, v/|v|)`` of a Hermitian matrix with at most one nonzero per row.

    Such a matrix is a direct sum of 1x1 and 2x2 blocks: row i holds its one
    entry v_i at column cols_i, and a zero row takes cols_i = i, v_i = 0 (its
    phase is stored as 0).  A pair's entries are both read from the upper
    triangle, v_j = conj(v_i), so every block is exactly Hermitian; a
    diagonal entry keeps its real part.  Returns None for any other matrix.
    """
    nonzero = a != 0
    if np.any(np.count_nonzero(nonzero, axis=1) > 1):
        return None
    rows = np.arange(a.shape[0])
    cols = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rows)
    if np.any(cols[cols] != rows):
        return None
    upper = a[np.minimum(rows, cols), np.maximum(rows, cols)]
    v = np.where(rows < cols, upper, upper.conj())
    v[rows == cols] = upper[rows == cols].real
    mag = np.abs(v)
    phase = np.divide(v, mag, out=np.zeros_like(v), where=mag > 0)
    for x in (cols, mag, phase):
        x.setflags(write=False)
    return cols, mag, phase


def hermitian_term(matrix: np.ndarray, label: str = "") -> HermitianTerm:
    """Validate (see :func:`_hermitian`) and wrap a copy of a Hermitian matrix.

    A row-rotation term keeps its rotation and no eigenbasis; see
    :class:`HermitianTerm`.  The term freezes its own copy; the caller's
    array stays writable.
    """
    return _term(matrix, label, eigenbasis=False)


def _term(matrix, label: str, eigenbasis: bool) -> HermitianTerm:
    """:func:`hermitian_term`, with ``eigenbasis=True`` forcing the eigendecomposition."""
    matrix = _hermitian(np.array(matrix, dtype=complex), f"term {label!r}")
    matrix.setflags(write=False)
    rotation = _row_rotation(matrix)
    if rotation is not None and not eigenbasis:
        return HermitianTerm(matrix, label, float(rotation[1].max()), None, None, rotation)
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"term {label!r}: eigendecomposition failed: {exc}") from exc
    w = w.astype(float)
    w.setflags(write=False)
    v.setflags(write=False)
    return HermitianTerm(matrix, label, float(np.max(np.abs(w))), w, v, rotation)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Ordered decomposition H = sum_k h_k of dense Hermitian terms.

    ``total`` carries the eigendecomposition of the summed matrix, used by
    :func:`exact_evolution`.  ``block_columns`` is the partition of the rows
    into blocks that every term's exponential leaves invariant, derived once
    (see :func:`_block_columns`); the schedule step loop keeps only those
    columns of each row.
    """

    terms: tuple[HermitianTerm, ...]
    dim: int
    total: HermitianTerm = field(repr=False)

    @property
    def L(self) -> int:
        return len(self.terms)

    @cached_property
    def block_columns(self) -> np.ndarray:
        return _block_columns(self.terms, self.dim)


def _block_columns(terms: tuple[HermitianTerm, ...], dim: int) -> np.ndarray:
    """(dim, w): row i lists the columns of its invariant block in ascending order, then -1s.

    The blocks are the connected components of the rows linked i -- cols_i
    by the rotation terms, so every product of their exponentials is block
    diagonal; w is the widest block's size.  A term applied in its
    eigenbasis links every row.  Read-only; one block of width dim is a
    broadcast view.
    """
    rows = np.arange(dim)
    labels = np.zeros(dim, dtype=int)
    if all(term.rotation is not None for term in terms):
        links = np.stack([term.rotation[0] for term in terms])
        labels = rows
        while True:  # each row takes the least label it reaches; at most dim rounds
            new = np.minimum(labels, labels[links].min(axis=0))
            if np.array_equal(new, labels):
                break
            labels = new
    _, block = np.unique(labels, return_inverse=True)
    if block.max() == 0:
        return np.broadcast_to(rows, (dim, dim))  # no (dim, dim) table for one block
    sizes = np.bincount(block)
    members = np.argsort(block, kind="stable")
    table = np.full((len(sizes), sizes.max()), -1)
    table[block[members], rows - np.repeat(np.cumsum(sizes) - sizes, sizes)] = members
    out = table[block]
    out.setflags(write=False)
    return out


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
    total = _term(sum(t.matrix for t in wrapped), label, eigenbasis=True)
    return HamiltonianSpec(terms=tuple(wrapped), dim=dim, total=total)


def exact_evolution(H: HamiltonianSpec, t: float) -> np.ndarray:
    """Exact propagator exp(-i H t) of the summed Hamiltonian."""
    return exact_evolutions(H, [t])[0]


def exact_evolutions(H: HamiltonianSpec, ts: np.ndarray) -> np.ndarray:
    """Batched exact propagators, shape ``(len(ts), dim, dim)``.

    Slice i is ``V diag(exp(-i ts[i] w)) V^dagger`` from the cached
    eigendecomposition ``H.total = V diag(w) V^dagger``.
    """
    if H.dim > MAX_DIM:
        raise ValueError(f"dimension {H.dim} exceeds configured maximum {MAX_DIM}")
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


def observable(matrix: np.ndarray, label: str = "O") -> Observable:
    term = _term(matrix, label, eigenbasis=True)
    scale = max(1.0, term.norm)
    return Observable(
        matrix=term.matrix / scale,
        eigenvalues=term.eigenvalues / scale,
        eigenvectors=term.eigenvectors,
        scale=scale,
    )


class QuantumState:
    """A state as its factor F, rho = F F†, read-only.

    A pure state's F is its vector as one column; a mixed state's F holds the
    eigenvectors of weight w > 1e-14, each scaled by sqrt(w).  Build states
    with :meth:`pure`, :meth:`basis` or :meth:`mixed`, which validate.
    """

    def __init__(self, factor: np.ndarray):
        factor.setflags(write=False)
        self.factor = factor

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        vector = np.asarray(vector, dtype=complex).ravel()
        nrm = np.linalg.norm(vector)
        if not abs(nrm - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"pure state must have unit norm, got {nrm}")
        return cls(vector[:, None])

    @classmethod
    def basis(cls, dim: int, index: int = 0) -> "QuantumState":
        return cls.pure(np.eye(1, dim, index, dtype=complex))

    @classmethod
    def mixed(cls, density: np.ndarray) -> "QuantumState":
        density = _hermitian(density, "density matrix")
        if abs(np.trace(density) - 1.0) > 1e-10:
            raise ValueError("density matrix must have unit trace")
        w, v = np.linalg.eigh(density)
        if np.min(w) < -1e-10:
            raise ValueError(f"density matrix not positive semidefinite (min eig {np.min(w):.3e})")
        keep = w > 1e-14
        return cls(v[:, keep] * np.sqrt(w[keep])[None, :])

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def as_density(self) -> np.ndarray:
        return self.factor @ self.factor.conj().T


def sandwich(O: Observable, rho: QuantumState, Vo: np.ndarray, Vb: np.ndarray) -> float:
    """Re tr(O Vb rho Vo†) = Re vdot(Vo F, O Vb F), in normalized observable units.

    The one implementation of every state expectation: pure and mixed states
    differ only in the number of columns of their factor F.  With arms Vo and
    Vb it is the Hadamard test's exact X (x) O value,
    Re tr(O (Vo rho Vb† + Vb rho Vo†)) / 2.
    """
    if Vo.shape != (O.dim, O.dim) or Vb.shape != Vo.shape or rho.dim != O.dim:
        raise ValueError("dimension mismatch between observable, state and operators")
    return float(np.vdot(Vo @ rho.factor, O.matrix @ (Vb @ rho.factor)).real)


def expectation(O: Observable, rho: QuantumState, V: np.ndarray) -> float:
    """Re tr(O V rho V†), in the observable's original units."""
    return sandwich(O, rho, V, V) * O.scale


def lambda_norm(H: HamiltonianSpec) -> float:
    """Sum of term spectral norms (the dimensionless-time normalizer)."""
    return float(sum(t.norm for t in H.terms))
