"""Shot-level simulation of the randomized sampling circuit.

Each shot draws two independent realizations of the ensemble (one for the
anti-controlled arm, one for the controlled arm of the interferometric
circuit), forms the joint ancilla-system state and samples a single outcome
of the X (x) O measurement by exact Born probabilities.  Signs absorbed from
negative combination weights are carried as classical tags and multiplied
into the estimator, which rescales by resolution^2.

A state enters as its factor F with rho = F F† (one column for a pure
state): the shot tables propagate the columns of F and every exact value is
:func:`~mpfsim.operators.sandwich` of F, so pure and mixed states share one
path.  Only a factor of more than one column is capped, at dimension
``DENSITY_DIM_CAP``.

Shot j of estimator stream s draws from the counter-based Philox stream
keyed (seed, s, j): reproducibility is a property of the indices, not of
execution order, so shots can run in any order or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import DEFAULT_COMBO_CAP, MaterializedEnsemble, mixture_mean
from .operators import Observable, QuantumState, sandwich

__all__ = [
    "ShotRecord",
    "EstimatorState",
    "PreparedSampler",
    "prepare_sampler",
    "single_shot",
    "expected_value",
    "run_estimator",
    "shot_rng",
]

DENSITY_DIM_CAP = 64


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


def prepare_sampler(mat: MaterializedEnsemble, rho: QuantumState, O: Observable) -> PreparedSampler:
    """Precompute per-combination amplitudes for fast repeated shots.

    Combinations run in lexicographic order of their per-layer entry indices,
    layer 0 most significant.  Each branch's table grows from the last layer
    outwards, so every amplitude is M_0 (M_1 (... (M_last F))) for the state
    factor F.
    """
    if rho.dim != mat.dim or O.dim != mat.dim:
        raise ValueError("dimension mismatch")
    if rho.factor.shape[1] > 1 and rho.dim > DENSITY_DIM_CAP:
        raise ValueError(f"density-matrix sampling capped at dim {DENSITY_DIM_CAP}")
    basis = O.eigenvectors.conj().T
    branches = []
    for br in mat.branches:
        n_combos = math.prod(len(p) for p in br.layer_probs)
        if n_combos > DEFAULT_COMBO_CAP:
            raise ValueError(f"enumeration cap exceeded: {n_combos}")
        probs, signs, vecs = np.ones(1), np.ones(1, dtype=int), rho.factor[None]
        for p, s, m in reversed(list(zip(br.layer_probs, br.layer_signs, br.layer_matrices))):
            probs = np.multiply.outer(p, probs).ravel()
            signs = np.multiply.outer(s, signs).ravel()
            vecs = (m[:, None] @ vecs[None]).reshape(-1, *rho.factor.shape)
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
    return sandwich(O, rho, vbar, vbar)


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
