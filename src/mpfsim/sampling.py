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
keyed (seed, s, j), with 0 <= seed < 2^128 and 0 <= s, j < 2^64:
reproducibility is a property of the indices, not of execution order, so
shots can run in any order or in parallel.  A shot takes its five uniforms
in one draw: branch and combination of each arm, then the Born sample.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .ensembles import MaterializedEnsemble, mixture_mean
from .operators import Observable, QuantumState, sandwich

__all__ = [
    "ShotRecord",
    "PreparedSampler",
    "prepare_sampler",
    "single_shot",
    "expected_value",
    "run_estimator",
    "shot_rng",
]

DENSITY_DIM_CAP = 64
DEFAULT_COMBO_CAP = 10**6


@dataclass(frozen=True)
class ShotRecord:
    outcome: float
    sign_product: int


@dataclass(frozen=True)
class _PreparedBranch:
    combo_cum: list[float]
    combo_signs: list[int]
    combo_amps: np.ndarray  # (n_combos, dim, rank) in the observable eigenbasis


@dataclass(frozen=True)
class PreparedSampler:
    branch_cum: list[float]
    branches: tuple[_PreparedBranch, ...]
    eigenvalues: np.ndarray


def prepare_sampler(mat: MaterializedEnsemble, rho: QuantumState, O: Observable) -> PreparedSampler:
    """Precompute per-combination amplitudes for fast repeated shots.

    Combinations run in lexicographic order of their per-layer entry indices,
    layer 0 most significant.  Each branch's table grows from the last layer
    outwards, so every amplitude is M_0 (M_1 (... (M_last F))) for the state
    factor F.  The cumulative tables and signs are Python lists, which a
    shot searches with :func:`bisect.bisect_left`.
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
        branches.append(_PreparedBranch(np.cumsum(probs).tolist(), signs.tolist(), basis @ vecs))
    return PreparedSampler(
        branch_cum=np.cumsum([br.probability for br in mat.branches]).tolist(),
        branches=tuple(branches),
        eigenvalues=O.eigenvalues.copy(),
    )


def _pick(cum: list[float], u: float) -> int:
    """Index of the first cumulative weight >= u * total, as ``np.searchsorted``."""
    return min(bisect_left(cum, u * cum[-1]), len(cum) - 1)


def single_shot(sampler: PreparedSampler, rng: np.random.Generator) -> ShotRecord:
    """One full protocol round: independent arm draws, then one Born sample."""
    u = rng.random(5).tolist()
    br1 = sampler.branches[_pick(sampler.branch_cum, u[0])]
    c1 = _pick(br1.combo_cum, u[1])
    br2 = sampler.branches[_pick(sampler.branch_cum, u[2])]
    c2 = _pick(br2.combo_cum, u[3])
    a1, a2 = br1.combo_amps[c1], br2.combo_amps[c2]
    arms = np.empty((2, *a1.shape), dtype=complex)
    np.add(a1, a2, out=arms[0])
    np.subtract(a1, a2, out=arms[1])
    # Born probabilities of (ancilla +, eigenvalue i) then (ancilla -, i)
    probs = np.abs(arms)
    probs **= 2
    probs = probs.sum(axis=2).ravel()
    probs *= 0.25
    idx = int(np.searchsorted(probs.cumsum(), u[4] * probs.sum()))
    dim = len(sampler.eigenvalues)
    idx = min(idx, 2 * dim - 1)
    ancilla_sign = 1.0 if idx < dim else -1.0
    outcome = ancilla_sign * sampler.eigenvalues[idx % dim]
    return ShotRecord(outcome=float(outcome), sign_product=br1.combo_signs[c1] * br2.combo_signs[c2])


def expected_value(mat: MaterializedEnsemble, rho: QuantumState, O: Observable) -> float:
    """Exact E[sign * outcome] = tr(O V rho V†) for the signed mixture mean V.

    V comes layer by layer from :func:`mixture_mean`, in polynomial time
    (normalized observable units, i.e. before the resolution^2 and scale
    factors).
    """
    vbar = mixture_mean(mat)
    return sandwich(O, rho, vbar, vbar)


def shot_rng(seed: int, stream: int, shot: int) -> np.random.Generator:
    """Counter-based per-shot generator; (seed, stream, shot) is the address.

    The seed is Philox's 128-bit key and stream and shot are 64-bit counter
    words, so each must fit: 0 <= seed < 2^128 and 0 <= stream, shot < 2^64.
    """
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be in [0, 2^128)")
    for name, index in (("stream", stream), ("shot", shot)):
        if not 0 <= index < 2**64:
            raise ValueError(f"{name} must be in [0, 2^64)")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], dtype=np.uint64)
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
) -> tuple[float, float]:
    """N independent shots; returns (estimate, mean).

    ``mean`` is the sample mean of sign * outcome over the N shots
    (normalized observable units).  The estimate is
    ``mat.resolution**2 * O.scale * mean``, which converges to
    tr(O_original M rho M†) for the operator M the ensemble realizes on
    average.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    mean = _signed_sum(prepare_sampler(mat, rho, O), N, seed, stream) / N
    return mat.resolution**2 * O.scale * mean, mean
