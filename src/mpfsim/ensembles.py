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
(:func:`~mpfsim.schedules.suzuki_recursion`) and answers b < 0 with the
conjugate transpose S(|b| t)^dagger: every Suzuki formula is palindromic.
The recursion's S_2 leaves, 2^(chi-1) per distinct |b|
(:func:`~mpfsim.schedules.suzuki_leaf_scales`), come from one step loop
over all of their times (:func:`~mpfsim.schedules.schedule_matrices`), cut
into chunks whose accumulator holds at most ``BATCH_BYTES``; a leaf is
dropped once every |b| that reads it is built.  Each batched leaf is bit for
bit the one-point build of its time.  After its chunk the largest leaf is
rebuilt with :func:`~mpfsim.schedules.schedule_matrix`, and ``RuntimeError``
is raised if the two differ, which ties the batch to the one-point build on
the running numpy and BLAS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .operators import HamiltonianSpec
from .schedules import ExponentSchedule, schedule_matrices, schedule_matrix, suzuki_leaf_scales, suzuki_recursion

if TYPE_CHECKING:
    from .mpf import MPFSpec  # mpf imports this module

__all__ = [
    "SamplingEnsemble",
    "MaterializedEnsemble",
    "materialize",
    "matrices_per_batch",
    "mixture_mean",
]

# Bytes a batch may hold at once: a leaf build's (d, B*d) accumulator here,
# a tau chunk's grid arrays in :mod:`mpfsim.cli`, a batch of shots' working
# set in :mod:`mpfsim.sampling`.
BATCH_BYTES = 1 << 20


def matrices_per_batch(dim: int) -> int:
    """How many complex (dim, dim) matrices fit in ``BATCH_BYTES``; at least one."""
    return max(1, BATCH_BYTES // (16 * dim**2))


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
    chi = ens.spec.chi
    sizes = list(dict.fromkeys(abs(float(b)) for branch in ens.spec.branches for layer in branch for b in layer.b))
    reads = {size: suzuki_leaf_scales(chi, size) for size in sizes}
    scales = list(dict.fromkeys(y for ys in reads.values() for y in ys))
    largest = max(scales, key=abs)
    per_chunk = matrices_per_batch(H.dim)
    leaves: dict[float, np.ndarray] = {}
    built: dict[float, np.ndarray] = {}
    for i in range(0, len(scales), per_chunk):
        chunk = scales[i : i + per_chunk]
        leaves.update(zip(chunk, schedule_matrices(ens.schedule, H, np.array(chunk) * t)))
        if largest in chunk and schedule_matrix(ens.schedule, H, largest * t).tobytes() != leaves[largest].tobytes():
            raise RuntimeError(f"batched S_2 leaf at scale {largest!r} differs from schedule_matrix")
        # sizes complete in list order, since their leaves are listed in it
        while len(built) < len(sizes) and all(y in leaves for y in reads[sizes[len(built)]]):
            size = sizes[len(built)]
            built[size] = suzuki_recursion(chi, size, leaves.__getitem__)
        wanted = {y for size in sizes[len(built) :] for y in reads[size]}
        leaves = {y: leaf for y, leaf in leaves.items() if y in wanted}

    def entry(b: float, power: int) -> np.ndarray:
        base = built[abs(b)] if b >= 0 else built[abs(b)].conj().T
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
