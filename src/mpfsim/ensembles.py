"""Sampling ensembles: a formula's canonical form read as a distribution.

A sampling ensemble is a formula together with the merged S_2 schedule its
entries are built from; :func:`materialize` reads ``spec.branches``
directly.  One draw picks branch r with probability prod_layers ||C||_1 over
the sum of those products, then one entry q in each of its layers with
probability |C_q| / ||C||_1, tagged with sign(C_q).  The realized unitary is
the left-to-right product of the drawn S(b_q t)^power_q and the realized
sign is the product of the drawn signs, so

    resolution * E[sign * V] = sum_branches prod_layers sum_q C_q S(b_q t)^power_q,

the formula's operator (:func:`mpfsim.mpf.mpf_matrix`).
:func:`mpfsim.mpf.mpf_ensemble` builds one.

:func:`materialize` builds each S_2chi(|b| t) once by Suzuki's recursion
(:func:`~mpfsim.schedules.suzuki_recursion`) from 2^(chi-1) one-point S_2
builds, the steps the sweep's grid cache runs at one time point, and
answers b < 0 with the conjugate transpose S(|b| t)^dagger: every Suzuki
formula is palindromic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .operators import HamiltonianSpec
from .schedules import ExponentSchedule, schedule_matrix, suzuki_recursion

if TYPE_CHECKING:
    from .mpf import MPFSpec  # mpf imports this module

__all__ = [
    "SamplingEnsemble",
    "MaterializedEnsemble",
    "materialize",
    "mixture_mean",
]

@dataclass(frozen=True)
class SamplingEnsemble:
    """A formula and the merged S_2 schedule its entries S_2chi(b t)^power are built from."""

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
    """Evaluate every entry S(b t)^power at time t, building S(|b| t) once per distinct |b|."""
    built: dict[float, np.ndarray] = {}

    def entry(b: float, power: int) -> np.ndarray:
        size = abs(b)
        if size not in built:
            built[size] = suzuki_recursion(ens.spec.chi, size, lambda y: schedule_matrix(ens.schedule, H, y * t))
        base = built[size] if b >= 0 else built[size].conj().T
        out = base
        for _ in range(power - 1):
            out = out @ base
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
