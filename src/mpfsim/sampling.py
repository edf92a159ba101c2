"""Shot-level simulation of the randomized sampling circuit.

Each shot draws two independent realizations of the ensemble (one for the
anti-controlled arm, one for the controlled arm of the interferometric
circuit), forms the joint ancilla-system state and samples a single outcome
of the X (x) O measurement by exact Born probabilities.  Signs absorbed from
negative combination weights are carried as classical tags and multiplied
into the estimator, which rescales by resolution^2.

Shot j of estimator stream s draws from the counter-based Philox stream
keyed (seed, s, j): reproducibility is a property of the indices, not of
execution order, so shots can run in any order or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import hoeffding_shots
from .ensembles import DEFAULT_COMBO_CAP, MaterializedEnsemble, mixture_mean
from .operators import Observable, QuantumState

__all__ = [
    "ShotRecord",
    "EstimatorState",
    "PreparedSampler",
    "hadamard_test_expectation",
    "prepare_sampler",
    "single_shot",
    "expected_value",
    "run_estimator",
    "coverage_experiment",
    "shot_rng",
]

DENSITY_DIM_CAP = 64


def hadamard_test_expectation(
    Vo: np.ndarray, Vb: np.ndarray, rho: QuantumState, O: Observable
) -> float:
    """Exact expectation of X (x) O after the two controlled arms.

    Equals Re tr(O (Vo rho Vb† + Vb rho Vo†)) / 2; for a pure state this is
    evaluated through the two-arm vector (|0> Vo|psi> + |1> Vb|psi>)/sqrt(2)
    without materializing the doubled space.
    """
    if Vo.shape != (O.dim, O.dim) or Vb.shape != Vo.shape or rho.dim != O.dim:
        raise ValueError("dimension mismatch")
    if rho.is_pure:
        a = Vo @ rho.vector
        b = Vb @ rho.vector
        val = np.vdot(a, O.matrix @ b).real
    else:
        dm = rho.as_density()
        val = 0.5 * np.trace(O.matrix @ (Vo @ dm @ Vb.conj().T + Vb @ dm @ Vo.conj().T)).real
    return float(val) * O.scale


@dataclass(frozen=True)
class ShotRecord:
    outcome: float
    sign_product: int


@dataclass
class EstimatorState:
    shots: int
    signed_sum: float
    resolution: float
    scale: float

    @property
    def mean(self) -> float:
        """Raw sample mean of sign * outcome (normalized observable units)."""
        return self.signed_sum / self.shots

    @property
    def estimate(self) -> float:
        """resolution^2 * scale * mean, the physical expectation estimate."""
        return self.resolution**2 * self.scale * self.mean


@dataclass(frozen=True)
class _PreparedBranch:
    combo_cum: np.ndarray
    combo_signs: np.ndarray
    combo_amps: np.ndarray  # (n_combos, dim, rank) in the observable eigenbasis


@dataclass(frozen=True)
class PreparedSampler:
    branch_cum: np.ndarray
    branches: tuple[_PreparedBranch, ...]
    eigenvalues: np.ndarray
    resolution: float
    scale: float


def _state_factor(rho: QuantumState) -> np.ndarray:
    """Columns F with rho = F F†: the vector itself for pure states."""
    if rho.is_pure:
        return rho.vector[:, None]
    if rho.dim > DENSITY_DIM_CAP:
        raise ValueError(f"density-matrix sampling capped at dim {DENSITY_DIM_CAP}")
    w, v = np.linalg.eigh(rho.as_density())
    w = np.clip(w, 0.0, None)
    keep = w > 1e-14
    return v[:, keep] * np.sqrt(w[keep])[None, :]


def prepare_sampler(mat: MaterializedEnsemble, rho: QuantumState, O: Observable) -> PreparedSampler:
    """Precompute per-combination amplitudes for fast repeated shots.

    Combinations run in lexicographic order of their per-layer entry indices,
    layer 0 most significant.  Each branch's table grows from the last layer
    outwards, so every amplitude is M_0 (M_1 (... (M_last F))) for the state
    factor F.
    """
    if rho.dim != mat.dim or O.dim != mat.dim:
        raise ValueError("dimension mismatch")
    factor = _state_factor(rho)
    basis = O.eigenvectors.conj().T
    branches = []
    for br in mat.branches:
        n_combos = math.prod(len(p) for p in br.layer_probs)
        if n_combos > DEFAULT_COMBO_CAP:
            raise ValueError(f"enumeration cap exceeded: {n_combos}")
        probs, signs, vecs = np.ones(1), np.ones(1, dtype=int), factor[None]
        for p, s, m in reversed(list(zip(br.layer_probs, br.layer_signs, br.layer_matrices))):
            probs = np.multiply.outer(p, probs).ravel()
            signs = np.multiply.outer(s, signs).ravel()
            vecs = (m[:, None] @ vecs[None]).reshape(-1, *factor.shape)
        branches.append(_PreparedBranch(np.cumsum(probs), signs, basis @ vecs))
    return PreparedSampler(
        branch_cum=np.cumsum([br.probability for br in mat.branches]),
        branches=tuple(branches),
        eigenvalues=O.eigenvalues.copy(),
        resolution=mat.resolution,
        scale=O.scale,
    )


def _draw(sampler: PreparedSampler, rng: np.random.Generator) -> tuple[int, int]:
    branch = int(np.searchsorted(sampler.branch_cum, rng.random() * sampler.branch_cum[-1]))
    branch = min(branch, len(sampler.branches) - 1)
    cum = sampler.branches[branch].combo_cum
    combo = int(np.searchsorted(cum, rng.random() * cum[-1]))
    return branch, min(combo, len(cum) - 1)


def single_shot(sampler: PreparedSampler, rng: np.random.Generator) -> ShotRecord:
    """One full protocol round: independent arm draws, then one Born sample."""
    b1, c1 = _draw(sampler, rng)
    b2, c2 = _draw(sampler, rng)
    a1 = sampler.branches[b1].combo_amps[c1]
    a2 = sampler.branches[b2].combo_amps[c2]
    plus = 0.25 * np.sum(np.abs(a1 + a2) ** 2, axis=1)
    minus = 0.25 * np.sum(np.abs(a1 - a2) ** 2, axis=1)
    probs = np.concatenate([plus, minus])
    total = probs.sum()
    idx = int(np.searchsorted(np.cumsum(probs), rng.random() * total))
    idx = min(idx, 2 * len(sampler.eigenvalues) - 1)
    ancilla_sign = 1.0 if idx < len(sampler.eigenvalues) else -1.0
    outcome = ancilla_sign * sampler.eigenvalues[idx % len(sampler.eigenvalues)]
    sign = int(sampler.branches[b1].combo_signs[c1] * sampler.branches[b2].combo_signs[c2])
    return ShotRecord(outcome=float(outcome), sign_product=sign)


def expected_value(mat: MaterializedEnsemble, rho: QuantumState, O: Observable) -> float:
    """Exact E[sign * outcome] = tr(O V rho V†) for the signed mixture mean V.

    V comes layer by layer from :func:`mixture_mean`, in polynomial time
    (normalized observable units, i.e. before the resolution^2 and scale
    factors).
    """
    vbar = mixture_mean(mat)
    dm = rho.as_density()
    return float(np.trace(O.matrix @ vbar @ dm @ vbar.conj().T).real)


def shot_rng(seed: int, stream: int, shot: int) -> np.random.Generator:
    """Counter-based per-shot generator; (seed, stream, shot) is the address."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, (seed >> 64) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    counter = np.array([0, 0, stream, shot], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _signed_sum(sampler: PreparedSampler, N: int, seed: int, stream: int) -> float:
    """Sum of sign * outcome over shots 0..N-1 of one estimator stream."""
    total = 0.0
    for j in range(N):
        rec = single_shot(sampler, shot_rng(seed, stream, j))
        total += rec.sign_product * rec.outcome
    return total


def run_estimator(
    mat: MaterializedEnsemble,
    rho: QuantumState,
    O: Observable,
    N: int,
    seed: int,
    stream: int = 0,
) -> tuple[float, EstimatorState]:
    """N independent shots; returns (estimate, state).

    The estimate is resolution^2 * scale * mean(sign * outcome), which
    converges to tr(O_original M rho M†) for the operator M the ensemble
    realizes on average.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    total = _signed_sum(prepare_sampler(mat, rho, O), N, seed, stream)
    state = EstimatorState(shots=N, signed_sum=total, resolution=mat.resolution, scale=O.scale)
    return state.estimate, state


def coverage_experiment(
    mat: MaterializedEnsemble,
    rho: QuantumState,
    O: Observable,
    epsilon: float,
    delta: float,
    trials: int,
    seed: int,
) -> float:
    """Fraction of independent estimators landing within epsilon of the truth.

    Trial s draws the Hoeffding-planned number of shots of estimator stream
    s, the shots ``run_estimator(..., seed, stream=s)`` draws, and compares
    the raw sample mean against the exact expectation; the fraction must
    approach at least 1 - delta.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials for a meaningful coverage estimate")
    n_shots = hoeffding_shots(epsilon, delta).N
    target = expected_value(mat, rho, O)
    sampler = prepare_sampler(mat, rho, O)
    hits = sum(abs(_signed_sum(sampler, n_shots, seed, s) / n_shots - target) <= epsilon for s in range(trials))
    return hits / trials
