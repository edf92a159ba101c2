"""Sampling ensembles: layered sign-tagged distributions over schedules.

An ensemble is a set of branches; each branch carries a probability and an
ordered list of layers, and each layer is a discrete distribution over
``(probability, sign, schedule, time_scale)`` entries.  One draw picks a
branch, then one entry per layer; the realized unitary is the left-to-right
product of the drawn entry operators and the realized sign is the product of
the drawn entry signs.  The construction guarantees

    resolution * E[sign * V] = target operator.

:func:`mpfsim.mpf.mpf_ensemble` builds one from a formula's canonical form:
one ensemble branch per formula branch, one ensemble layer per formula layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .operators import HamiltonianSpec
from .schedules import ExponentSchedule, merge_adjacent, reverse_schedule, s1_schedule, schedule_matrix

__all__ = [
    "EnsembleEntry",
    "EnsembleLayer",
    "EnsembleBranch",
    "SamplingEnsemble",
    "s2_hat_ensemble",
    "MaterializedEnsemble",
    "materialize",
    "mixture_mean",
    "enumerate_combos",
]

DEFAULT_COMBO_CAP = 10**6


@dataclass(frozen=True)
class EnsembleEntry:
    probability: float
    sign: int
    schedule: ExponentSchedule
    time_scale: float = 1.0


@dataclass(frozen=True)
class EnsembleLayer:
    entries: tuple[EnsembleEntry, ...]

    def __post_init__(self):
        total = sum(e.probability for e in self.entries)
        if abs(total - 1.0) > 1e-12 or any(e.probability < 0 for e in self.entries):
            raise ValueError(f"layer probabilities must be nonnegative and sum to 1, got {total}")


@dataclass(frozen=True)
class EnsembleBranch:
    probability: float
    layers: tuple[EnsembleLayer, ...]


@dataclass(frozen=True)
class SamplingEnsemble:
    branches: tuple[EnsembleBranch, ...]
    resolution: float

    def __post_init__(self):
        total = sum(b.probability for b in self.branches)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch probabilities must sum to 1, got {total}")


def s2_hat_ensemble(L: int) -> SamplingEnsemble:
    """Randomized second-order variant: mean of S1(t) and S1†(-t).

    Both entries realize forward evolutions; the second runs the terms in
    reversed order, so the equal-weight mixture averages to the symmetric
    second-order formula.
    """
    fwd = s1_schedule(L)
    layer = EnsembleLayer(
        (
            EnsembleEntry(0.5, +1, fwd, 1.0),
            EnsembleEntry(0.5, +1, reverse_schedule(fwd), 1.0),
        )
    )
    return SamplingEnsemble((EnsembleBranch(1.0, (layer,)),), resolution=1.0)


@dataclass(frozen=True)
class MaterializedBranch:
    probability: float
    layer_probs: tuple[np.ndarray, ...]
    layer_signs: tuple[np.ndarray, ...]
    layer_matrices: tuple[np.ndarray, ...]  # each (n_entries, d, d)


@dataclass(frozen=True)
class MaterializedEnsemble:
    """Ensemble with every entry operator evaluated at a fixed time."""

    branches: tuple[MaterializedBranch, ...]
    resolution: float
    dim: int


def materialize(ens: SamplingEnsemble, H: HamiltonianSpec, t: float) -> MaterializedEnsemble:
    """Evaluate every entry operator at time t, each distinct (schedule, time) once."""
    built: dict[tuple[ExponentSchedule, float], np.ndarray] = {}

    def entry_matrix(e: EnsembleEntry) -> np.ndarray:
        key = (e.schedule, e.time_scale * t)
        if key not in built:
            built[key] = schedule_matrix(merge_adjacent(e.schedule), H, key[1])
        return built[key]

    branches = []
    for br in ens.branches:
        probs, signs, mats = [], [], []
        for layer in br.layers:
            probs.append(np.array([e.probability for e in layer.entries]))
            signs.append(np.array([e.sign for e in layer.entries], dtype=int))
            mats.append(np.stack([entry_matrix(e) for e in layer.entries]))
        branches.append(
            MaterializedBranch(br.probability, tuple(probs), tuple(signs), tuple(mats))
        )
    return MaterializedEnsemble(
        branches=tuple(branches),
        resolution=ens.resolution,
        dim=H.dim,
    )


def mixture_mean(mat: MaterializedEnsemble) -> np.ndarray:
    """E[sign * V] via per-layer sums: sum_br p_br prod_layers (sum p s M)."""
    out = np.zeros((mat.dim, mat.dim), dtype=complex)
    for br in mat.branches:
        prod = np.eye(mat.dim, dtype=complex)
        for p, s, m in zip(br.layer_probs, br.layer_signs, br.layer_matrices):
            prod = prod @ np.einsum("q,qij->ij", p * s, m)
        out += br.probability * prod
    return out


def enumerate_combos(mat: MaterializedEnsemble, cap: int = DEFAULT_COMBO_CAP):
    """Yield every (probability, sign, operator) of the full joint draw.

    Exhaustive expansion of branches x per-layer entries; the brute-force
    reference for :func:`mixture_mean` in mixture-identity checks.  Raises
    when the number of combinations in any branch exceeds ``cap``.
    """
    for br in mat.branches:
        sizes = [len(p) for p in br.layer_probs]
        n_combos = int(np.prod(sizes)) if sizes else 1
        if n_combos > cap:
            raise ValueError(f"enumeration cap exceeded: {n_combos} > {cap}")
        for combo in itertools.product(*[range(n) for n in sizes]):
            p = br.probability
            sign = 1
            op = np.eye(mat.dim, dtype=complex)
            for layer_idx, q in enumerate(combo):
                p *= br.layer_probs[layer_idx][q]
                sign *= int(br.layer_signs[layer_idx][q])
                op = op @ br.layer_matrices[layer_idx][q]
            yield p, sign, op
