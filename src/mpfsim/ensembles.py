"""Sampling ensembles: a formula's canonical form read as a distribution.

A sampling ensemble is a formula together with the merged order-2chi Suzuki
schedule its entries run; :func:`materialize` reads ``spec.branches``
directly.  One draw picks branch r with probability prod_layers ||C||_1 over
the sum of those products, then one entry q in each of its layers with
probability |C_q| / ||C||_1, tagged with sign(C_q).  The realized unitary is
the left-to-right product of the drawn S(b_q t)^power_q and the realized
sign is the product of the drawn signs, so

    resolution * E[sign * V] = sum_branches prod_layers sum_q C_q S(b_q t)^power_q,

the formula's operator (:func:`mpfsim.mpf.mpf_matrix`).
:func:`mpfsim.mpf.mpf_ensemble` builds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .operators import HamiltonianSpec
from .schedules import ExponentSchedule, schedule_matrix

if TYPE_CHECKING:
    from .mpf import MPFSpec  # mpf imports this module

__all__ = [
    "SamplingEnsemble",
    "MaterializedEnsemble",
    "materialize",
    "mixture_mean",
]

DEFAULT_COMBO_CAP = 10**6


@dataclass(frozen=True)
class SamplingEnsemble:
    """A formula and the schedule S its entries S(b t)^power run."""

    spec: MPFSpec
    schedule: ExponentSchedule


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
    """Evaluate every entry S(b t)^power at time t, building S(b t) once per distinct b."""
    built: dict[float, np.ndarray] = {}

    def entry(b: float, power: int) -> np.ndarray:
        if b not in built:
            built[b] = schedule_matrix(ens.schedule, H, b * t)
        out = built[b]
        for _ in range(power - 1):
            out = out @ built[b]
        return out

    weights = [math.prod(layer.one_norm for layer in branch) for branch in ens.spec.branches]
    total = sum(weights)
    branches = tuple(
        MaterializedBranch(
            w / total,
            tuple(np.abs(layer.C) / layer.one_norm for layer in branch),
            tuple(np.where(layer.C >= 0, 1, -1) for layer in branch),
            tuple(
                np.stack([entry(float(b), int(n)) for b, n in zip(layer.b, layer.power)])
                for layer in branch
            ),
        )
        for w, branch in zip(weights, ens.spec.branches)
    )
    return MaterializedEnsemble(branches=branches, resolution=ens.spec.resolution, dim=H.dim)


def mixture_mean(mat: MaterializedEnsemble) -> np.ndarray:
    """E[sign * V] via per-layer sums: sum_br p_br prod_layers (sum p s M)."""
    out = np.zeros((mat.dim, mat.dim), dtype=complex)
    for br in mat.branches:
        prod = np.eye(mat.dim, dtype=complex)
        for p, s, m in zip(br.layer_probs, br.layer_signs, br.layer_matrices):
            prod = prod @ np.einsum("q,qij->ij", p * s, m)
        out += br.probability * prod
    return out
