"""Trotter-Suzuki exponent schedules.

An :class:`ExponentSchedule` is the oracle-level program of a product
formula: an ordered list of ``(term_index, alpha)`` steps standing for the
operator product ``E(steps[0]) @ E(steps[1]) @ ... @ E(steps[-1])`` with
``E(k, a) = exp(-i * a * h_k * t)``.  ``steps[0]`` is therefore the leftmost
factor, i.e. the one applied last to a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import HamiltonianSpec, herm_expm

__all__ = [
    "ExponentSchedule",
    "s1_schedule",
    "s2_schedule",
    "suzuki_schedule",
    "suzuki_constant",
    "repeat_schedule",
    "merge_adjacent",
    "reverse_schedule",
    "schedule_matrix",
    "schedule_matrices",
    "merged_count",
    "suzuki_merged_count",
    "alpha_sums",
    "remainder_bound",
]


@dataclass(frozen=True)
class ExponentSchedule:
    """Ordered exponent steps for L Hamiltonian terms."""

    steps: tuple[tuple[int, float], ...]
    L: int

    def __post_init__(self):
        for k, _ in self.steps:
            if not 0 <= k < self.L:
                raise ValueError(f"term index {k} out of range for L={self.L}")


def s1_schedule(L: int) -> ExponentSchedule:
    """First-order formula: every term once, ascending, alpha = 1."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return ExponentSchedule(tuple((k, 1.0) for k in range(L)), L=L)


def s2_schedule(L: int) -> ExponentSchedule:
    """Second-order symmetric formula: forward then backward half-steps."""
    if L < 1:
        raise ValueError("L must be >= 1")
    fwd = [(k, 0.5) for k in range(L)]
    return ExponentSchedule(tuple(fwd + fwd[::-1]), L=L)


def suzuki_constant(chi: int) -> float:
    """The recursion constant s_{2chi} = (4 - 4^(1/(2chi+1)))^(-1)."""
    return 1.0 / (4.0 - 4.0 ** (1.0 / (2 * chi + 1)))


def suzuki_schedule(chi: int, L: int) -> ExponentSchedule:
    """Order-2chi Suzuki schedule via the standard five-fold recursion."""
    if chi < 1:
        raise ValueError("chi must be >= 1")
    if chi == 1:
        return s2_schedule(L)
    inner = suzuki_schedule(chi - 1, L)
    s = suzuki_constant(chi - 1)
    steps: list[tuple[int, float]] = []
    for factor in (s, s, 1.0 - 4.0 * s, s, s):
        steps.extend((k, a * factor) for k, a in inner.steps)
    return ExponentSchedule(tuple(steps), L=L)


def merge_adjacent(s: ExponentSchedule) -> ExponentSchedule:
    """Fuse consecutive steps that address the same term.

    Merging preserves the realized operator exactly (same term, summed
    angle) and never increases the step count.
    """
    merged: list[tuple[int, float]] = []
    for k, a in s.steps:
        if merged and merged[-1][0] == k:
            merged[-1] = (k, merged[-1][1] + a)
        else:
            merged.append((k, a))
    return ExponentSchedule(tuple(merged), L=s.L)


def reverse_schedule(s: ExponentSchedule) -> ExponentSchedule:
    return ExponentSchedule(tuple(reversed(s.steps)), L=s.L)


def repeat_schedule(s: ExponentSchedule, r: int) -> ExponentSchedule:
    """r repetitions at time t/r each; adjacent seam steps are fused."""
    if r < 1:
        raise ValueError("r must be >= 1")
    scaled = [(k, a / r) for k, a in s.steps]
    return merge_adjacent(ExponentSchedule(tuple(scaled * r), L=s.L))


def merged_count(s: ExponentSchedule) -> int:
    return len(merge_adjacent(s).steps)


def suzuki_merged_count(chi: int, L: int) -> int:
    """Closed-form merged oracle count 2 * 5^(chi-1) * (L-1) + 1."""
    return 2 * 5 ** (chi - 1) * (L - 1) + 1


def alpha_sums(s: ExponentSchedule) -> np.ndarray:
    """Total alpha per term; equals 1 per term for any Suzuki schedule."""
    out = np.zeros(s.L)
    for k, a in s.steps:
        out[k] += a
    return out


def schedule_matrix(s: ExponentSchedule, H: HamiltonianSpec, t: float) -> np.ndarray:
    """Materialize the schedule as a dense operator at time ``t``."""
    if s.L != H.L:
        raise ValueError(f"schedule addresses {s.L} terms, Hamiltonian has {H.L}")
    out = np.eye(H.dim, dtype=complex)
    for k, a in reversed(s.steps):
        out = herm_expm(H.terms[k], a * t) @ out
    return out


def schedule_matrices(s: ExponentSchedule, H: HamiltonianSpec, ts: np.ndarray) -> np.ndarray:
    """Batched :func:`schedule_matrix` over a time grid, shape (B, d, d).

    The accumulator is kept as a (d, B*d) column-stacked block so every step
    costs two large GEMMs instead of 2B small ones.
    """
    if s.L != H.L:
        raise ValueError(f"schedule addresses {s.L} terms, Hamiltonian has {H.L}")
    ts = np.asarray(ts, dtype=float)
    d, B = H.dim, len(ts)
    acc = np.tile(np.eye(d, dtype=complex), (1, B))
    for k, a in reversed(s.steps):
        term = H.terms[k]
        x = (term.eigenvectors.conj().T @ acc).reshape(d, B, d)
        x *= np.exp(-1j * np.outer(term.eigenvalues, a * ts))[:, :, None]
        acc = term.eigenvectors @ x.reshape(d, B * d)
    return acc.reshape(d, B, d).transpose(1, 0, 2)


def remainder_bound(s: ExponentSchedule, H: HamiltonianSpec, t: float, ell: int) -> float:
    """Taylor-remainder bound (sum_j |alpha_j| ||h_kj|| t)^(ell+1) / (ell+1)!."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    total = sum(abs(a) * H.terms[k].norm for k, a in s.steps)
    return (total * t) ** (ell + 1) / math.factorial(ell + 1)
