"""Trotter-Suzuki exponent schedules.

An :class:`ExponentSchedule` is the oracle-level program of a product
formula: an ordered list of ``(term_index, alpha)`` steps standing for the
operator product ``E(steps[0]) @ E(steps[1]) @ ... @ E(steps[-1])`` with
``E(k, a) = exp(-i * a * h_k * t)``.  ``steps[0]`` is therefore the leftmost
factor, i.e. the one applied last to a state.

:func:`schedule_matrices` has the one step loop; it left-multiplies an
accumulator by each step's exponential, exactly where the term allows.  A
term with at most one nonzero per row (every term of the SYK, Hubbard and
anticommuting models and of an even-length free-fermion ring) is a direct
sum of 1x1 and 2x2 blocks, so with row i's entry v_i at column cols_i

    exp(-i theta h) A = cos(theta |v|) * A - i sin(theta |v|) (v / |v|) * A[cols]

row by row: one row gather and two scaled adds, no matrix product.  Pairs,
diagonal entries and zero rows (cols_i = i, v_i = 0) share that formula.
Any other term is applied in its eigenbasis, V diag(exp(-i theta w)) V^dagger,
as two matrix products.

Rows linked by some rotation term's cols form invariant blocks
(``HamiltonianSpec.block_columns``), and every product of rotation
exponentials is block diagonal.  So row i of the accumulator keeps only
the columns of its block, in ascending order, then zero padding up to w,
the widest block's size plus one.  cols_i lies in row i's block, so the
gather lines up entry for entry, and each stored entry sees exactly the
operations of the full-width loop.  An entry outside row i's block would
see what a padding entry of row i sees, so the last column (padding in
every row) carries the signed zero the full-width loop leaves there, and
the rows are scattered into the (B, d, d) output once at the end: the
output is bitwise the full-width loop's.  SYK's even terms conserve parity
(2 blocks of d/2); Hubbard's conserve more (25 blocks, the widest 36 of
256).  A Hamiltonian with an eigenbasis term, or with one block spanning
all rows, runs at w = d with no padding.

:func:`suzuki_recursion` builds an order-2chi operator from S_2 operators
by Suzuki's five-fold recursion; the sweep's grid cache builds every
S_2chi(b t), for the distance curves and the sampling ensembles alike,
through it, and :func:`suzuki_leaf_scales` lists the S_2 scales it reads.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .operators import HamiltonianSpec

__all__ = [
    "ExponentSchedule",
    "s2_schedule",
    "suzuki_schedule",
    "suzuki_constant",
    "merge_adjacent",
    "schedule_matrix",
    "schedule_matrices",
    "merged_count",
    "suzuki_merged_count",
    "suzuki_recursion",
    "suzuki_leaf_scales",
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


def merged_count(s: ExponentSchedule) -> int:
    return len(merge_adjacent(s).steps)


def suzuki_merged_count(chi: int, L: int) -> int:
    """Closed-form merged oracle count 2 * 5^(chi-1) * (L-1) + 1."""
    return 2 * 5 ** (chi - 1) * (L - 1) + 1


def suzuki_recursion(chi: int, scale: float, s2: Callable[[float], np.ndarray]) -> np.ndarray:
    """S_2chi(scale * t) from the S_2 builder ``s2(y) = S_2(y * t)``.

    S_2chi(y t) = S_2chi-2(s y t)^2 S_2chi-2((1-4s) y t) S_2chi-2(s y t)^2
    with s = suzuki_constant(chi-1), down to 2^(chi-1) calls of ``s2``;
    factors multiply in the order ``suzuki_schedule`` concatenates them,
    outer @ outer first, then outer @ mid @ outer.  The builder may return
    one (d, d) operator or a (B, d, d) stack over a time grid.  Equal to
    the flat ``suzuki_schedule`` build in exact arithmetic, not bitwise.
    """
    if chi == 1:
        return s2(scale)
    s = suzuki_constant(chi - 1)
    outer = suzuki_recursion(chi - 1, s * scale, s2)
    outer = outer @ outer
    return outer @ suzuki_recursion(chi - 1, (1.0 - 4.0 * s) * scale, s2) @ outer


def suzuki_leaf_scales(chi: int, scale: float) -> list[float]:
    """The 2^(chi-1) scales ``suzuki_recursion(chi, scale, s2)`` passes to ``s2``, in call order.

    Each is formed by the same float operations as in the recursion, so a
    builder that looks its S_2 operators up by these keys finds every call.
    """
    if chi == 1:
        return [scale]
    s = suzuki_constant(chi - 1)
    return suzuki_leaf_scales(chi - 1, s * scale) + suzuki_leaf_scales(chi - 1, (1.0 - 4.0 * s) * scale)


def schedule_matrix(s: ExponentSchedule, H: HamiltonianSpec, t: float) -> np.ndarray:
    """Materialize the schedule as a dense operator at time ``t``."""
    return schedule_matrices(s, H, [t])[0]


def schedule_matrices(s: ExponentSchedule, H: HamiltonianSpec, ts: np.ndarray) -> np.ndarray:
    """The schedule's operator at every time of a grid, shape (B, d, d).

    The accumulator is kept as a (d, B*w) column-stacked block: row i holds
    the columns of its invariant block, then padding, so a row rotation
    step scales whole rows of only those entries (see the module
    docstring).  When one block spans all rows, w = d: the accumulator is
    the full operator, an eigenbasis step costs two large GEMMs instead of
    2B small ones, and the result is a transposed view of it.
    """
    if s.L != H.L:
        raise ValueError(f"schedule addresses {s.L} terms, Hamiltonian has {H.L}")
    ts = np.asarray(ts, dtype=float)
    blocks = H.block_columns
    d, B, w = H.dim, len(ts), blocks.shape[1]
    blocked = w < d
    if blocked:
        # one padding column more, for the entries outside each row's block
        blocks = np.pad(blocks, ((0, 0), (0, 1)), constant_values=-1)
        w += 1
    acc = np.tile(blocks == np.arange(d)[:, None], (1, B)).astype(complex)
    for k, a in reversed(s.steps):
        term = H.terms[k]
        if term.rotation is None:
            x = (term.eigenvectors.conj().T @ acc).reshape(d, B, d)
            x *= np.exp(-1j * np.outer(term.eigenvalues, a * ts))[:, :, None]
            acc = term.eigenvectors @ x.reshape(d, B * d)
            continue
        cols, mag, phase = term.rotation
        angle = np.outer(mag, a * ts)
        x = acc.reshape(d, B, w)
        gathered = x[cols]
        gathered *= (np.sin(angle) * (-1j * phase)[:, None])[:, :, None]
        x *= np.cos(angle)[:, :, None]
        x += gathered
    x = acc.reshape(d, B, w)
    if blocked:
        rows, pos = np.nonzero(blocks >= 0)
        out = np.repeat(x[:, :, -1:], d, axis=2)
        out[rows, :, blocks[rows, pos]] = x[rows, :, pos]
        x = out
    return x.transpose(1, 0, 2)
