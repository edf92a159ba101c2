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

One function, :func:`_shots`, draws every shot: it takes the uniforms of
many shots as the rows of one array and picks both arms' branches and
combinations for all of them at once, with ``np.searchsorted``, as rows of
one amplitude table that holds every branch's combinations.  It then Born
samples them in batches of ``batch_shots`` rows: each shot's threshold is
the fifth uniform times its row's sum, and the ``np.cumsum`` prefix sums of
the rows, taken up to the last run end, are compared with the threshold only
where a run of equal outcomes ends, so a Pauli observable costs two
comparisons a shot.
:func:`single_shot` is its batch of one.  :func:`run_estimator` hands it one
block of shots at a time: a block's uniforms come from one pass of
Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) written in numpy uint64 arithmetic, and the signed outcomes are added
in shot order, so the estimate is bit for bit that of a per-shot loop and
does not depend on the block or batch size.  The working set of a block,
uniforms included, is capped at :data:`~mpfsim.ensembles.BATCH_BYTES`, so
memory does not grow with the shot count.  After the blocks the estimator
recomputes its first and last shot with :func:`single_shot` and raises
``RuntimeError`` if either differs from the block's.  That ties the batched
Philox to numpy's own generator on the running platform, and a row of a
many-row batch to a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import BATCH_BYTES, MaterializedEnsemble, mixture_mean
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
# Shots whose uniforms one Philox pass draws and whose arms one draw picks;
# their numpy calls cost about the same at any length, so a block runs ahead
# of smaller Born batches.
_UNIFORM_BLOCK = 2048

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
_PHILOX_M = tuple(
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)) for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


@dataclass(frozen=True)
class ShotRecord:
    outcome: float
    sign_product: int


@dataclass(frozen=True)
class _PreparedBranch:
    combo_cum: np.ndarray
    combo_signs: np.ndarray  # +-1.0
    combo_amps: np.ndarray  # (n_combos, dim, rank) in the observable eigenbasis


@dataclass(frozen=True)
class PreparedSampler:
    branch_cum: np.ndarray
    branches: tuple[_PreparedBranch, ...]
    eigenvalues: np.ndarray
    amps: np.ndarray  # every branch's combo_amps in branch order; those are views of it
    signs: np.ndarray  # every branch's combo_signs, likewise
    offsets: np.ndarray  # each branch's first row in amps and signs
    # The outcomes run (ancilla +, eigenvalue i) then (ancilla -, i): the last
    # index of each run of equal outcomes but the final run, and each run's outcome.
    run_ends: np.ndarray
    run_outcomes: np.ndarray
    batch_shots: int  # shots one Born batch holds


def prepare_sampler(mat: MaterializedEnsemble, rho: QuantumState, O: Observable) -> PreparedSampler:
    """Precompute per-combination amplitudes for fast repeated shots.

    Combinations run in lexicographic order of their per-layer entry indices,
    layer 0 most significant.  Each branch's table grows from the last layer
    outwards, so every amplitude is M_0 (M_1 (... (M_last F))) for the state
    factor F; the branches' tables are rows of one array, written in place.
    """
    if rho.dim != mat.dim or O.dim != mat.dim:
        raise ValueError("dimension mismatch")
    if rho.factor.shape[1] > 1 and rho.dim > DENSITY_DIM_CAP:
        raise ValueError(f"density-matrix sampling capped at dim {DENSITY_DIM_CAP}")
    sizes = [math.prod(len(p) for p in br.layer_probs) for br in mat.branches]
    if max(sizes) > DEFAULT_COMBO_CAP:
        raise ValueError(f"enumeration cap exceeded: {max(sizes)}")
    offsets = np.cumsum([0, *sizes])
    dim, rank = rho.factor.shape
    table = np.empty((offsets[-1], dim, rank), dtype=complex)
    table_signs = np.empty(offsets[-1])
    basis = O.eigenvectors.conj().T
    branches = []
    for br, lo, hi in zip(mat.branches, offsets, offsets[1:]):
        probs, signs, vecs = np.ones(1), np.ones(1), rho.factor[None]
        for p, s, m in reversed(list(zip(br.layer_probs, br.layer_signs, br.layer_matrices))):
            probs = np.multiply.outer(p, probs).ravel()
            signs = np.multiply.outer(s, signs).ravel()
            vecs = (m[:, None] @ vecs[None]).reshape(-1, dim, rank)
        np.matmul(basis, vecs, out=table[lo:hi])
        table_signs[lo:hi] = signs
        branches.append(_PreparedBranch(np.cumsum(probs), table_signs[lo:hi], table[lo:hi]))
    outcomes = np.concatenate([O.eigenvalues, -O.eigenvalues])
    bits = outcomes.view(np.uint64)  # so +0.0 and -0.0 keep runs of their own
    run_ends = np.flatnonzero(bits[1:] != bits[:-1])
    # every array of a Born batch: the gathered arms and their difference,
    # |.|^2 by rank, the Born rows in two layouts and their prefix sums, and
    # five per-shot vectors
    per_shot = 16 * 3 * dim * rank + 8 * 2 * dim * rank + 8 * 3 * 2 * dim + 40
    return PreparedSampler(
        branch_cum=np.cumsum([br.probability for br in mat.branches]),
        branches=tuple(branches),
        eigenvalues=O.eigenvalues.copy(),
        amps=table,
        signs=table_signs,
        offsets=offsets[:-1],
        run_ends=run_ends,
        run_outcomes=outcomes[np.append(run_ends, -1)],
        # a block's uniforms, table rows and outcomes stay live
        batch_shots=max(1, (BATCH_BYTES - 64 * _UNIFORM_BLOCK) // per_shot),
    )


def _pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the first cumulative weight >= u * total, for each uniform in u."""
    return np.minimum(np.searchsorted(cum, u * cum[-1]), len(cum) - 1)


def _born_runs(probs: np.ndarray, threshold: np.ndarray, run_ends: np.ndarray) -> np.ndarray:
    """For each row, how many run ends have a prefix sum of probs below threshold.

    That is the run holding the first index whose prefix sum reaches the
    threshold, since prefix sums of non-negative terms do not fall.
    """
    cum = np.cumsum(probs[:, : run_ends[-1] + 1], axis=1)
    return np.count_nonzero(cum[:, run_ends] < threshold[:, None], axis=1)


def _draw(sampler: PreparedSampler, u: np.ndarray) -> np.ndarray:
    """(2, n) rows of ``sampler.amps``: each arm's branch, then its combination in it, for all n shots at once."""
    branch = _pick(sampler.branch_cum, u[:, 0:4:2].T)
    rows = np.empty(branch.shape, dtype=np.intp)
    for b, br in enumerate(sampler.branches):
        drawn = branch == b
        rows[drawn] = _pick(br.combo_cum, u[:, 1:4:2].T[drawn]) + sampler.offsets[b]
    return rows


def _shots(sampler: PreparedSampler, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign, outcome) of the shots whose five uniforms are the rows of u.

    Both arms are drawn for all rows at once; the two arms' amplitudes give
    the Born probabilities of (ancilla +, eigenvalue i) then (ancilla -, i),
    and the fifth uniform picks one, ``batch_shots`` rows at a time.
    """
    rows = _draw(sampler, u)
    outcomes = np.empty(len(u))
    for k in range(0, len(u), sampler.batch_shots):
        # (arm, shot, eigenvalue, rank), then the arms' sum and difference in
        # its place: ufuncs write a contiguous output without a buffer
        arms = np.take(sampler.amps, rows[:, k : k + sampler.batch_shots], axis=0)
        m = arms.shape[1]
        minus = arms[0] - arms[1]
        arms[0] += arms[1]
        arms[1] = minus
        del minus
        probs = np.abs(arms)
        del arms
        probs **= 2
        # sums run along the contiguous last axis: the rank, then each shot's Born row
        probs = probs.sum(axis=3)
        probs *= 0.25
        probs = np.ascontiguousarray(probs.transpose(1, 0, 2)).reshape(m, -1)
        threshold = u[k : k + m, 4] * probs.sum(axis=1)
        outcomes[k : k + m] = sampler.run_outcomes[_born_runs(probs, threshold, sampler.run_ends)]
    arm_signs = sampler.signs[rows]
    return arm_signs[0] * arm_signs[1], outcomes


def single_shot(sampler: PreparedSampler, rng: np.random.Generator) -> ShotRecord:
    """One full protocol round: independent arm draws, then one Born sample; :func:`_shots` of one row."""
    sign, outcome = _shots(sampler, rng.random(5)[None])
    return ShotRecord(outcome=float(outcome[0]), sign_product=int(sign[0]))


def expected_value(mat: MaterializedEnsemble, rho: QuantumState, O: Observable) -> float:
    """Exact E[sign * outcome] = tr(O V rho V†) for the signed mixture mean V.

    V comes layer by layer from :func:`mixture_mean`, in polynomial time
    (normalized observable units, i.e. before the resolution^2 and scale
    factors).
    """
    vbar = mixture_mean(mat)
    return sandwich(O, rho, vbar, vbar)


def _check_address(seed: int, stream: int, shot: int) -> None:
    if not 0 <= seed < 2**128:
        raise ValueError("seed must be in [0, 2^128)")
    for name, index in (("stream", stream), ("shot", shot)):
        if not 0 <= index < 2**64:
            raise ValueError(f"{name} must be in [0, 2^64)")


def shot_rng(seed: int, stream: int, shot: int) -> np.random.Generator:
    """Counter-based per-shot generator; (seed, stream, shot) is the address.

    The seed is Philox's 128-bit key and stream and shot are 64-bit counter
    words, so each must fit: 0 <= seed < 2^128 and 0 <= stream, shot < 2^64.
    """
    _check_address(seed, stream, shot)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], dtype=np.uint64)
    counter = np.array([0, 0, stream, shot], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _mulhilo(m: tuple[np.uint64, np.uint64, np.uint64], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, for m given as (m, low limb, high limb).

    Schoolbook multiplication on 32-bit limbs (Warren, Hacker's Delight,
    mulhu), every partial sum below 2^64.
    """
    mm, m0, m1 = m
    x0 = x & _M32
    hi = x >> _S32
    lo = x * mm
    t = x0 * m0
    t >>= _S32
    x0 *= m1
    x0 += t  # m1 x0 + carry of m0 x0
    np.bitwise_and(x0, _M32, out=t)
    x0 >>= _S32
    mid = hi * m0
    t += mid  # m0 x1 + low half of the above
    hi *= m1
    hi += x0
    t >>= _S32
    hi += t
    return hi, lo


def _uniforms(seed: int, stream: int, j0: int, n: int) -> np.ndarray:
    """(n, 5) uniforms of shots j0..j0+n-1; row i is ``shot_rng(seed, stream, j0 + i).random(5)``.

    numpy's Philox increments counter word 0 before each block of four words, so
    the generator at counter [0, 0, stream, j] emits the block of counter
    [1, 0, stream, j] and then that of [2, 0, stream, j]: a shot's first four
    uniforms and its fifth.  A word x becomes the double (x >> 11) 2^-53.
    """
    j = np.arange(n, dtype=np.uint64) + np.uint64(j0)
    # counter words; axis 0 holds the two blocks
    ctr = [np.array([[1], [2]], dtype=np.uint64), np.zeros((2, 1), dtype=np.uint64),
           np.full((2, 1), stream, dtype=np.uint64), np.broadcast_to(j, (2, n))]
    k0, k1 = np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(seed >> 64)
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(_PHILOX_M[0], ctr[0])
            hi1, lo1 = _mulhilo(_PHILOX_M[1], ctr[2])
            ctr = [hi1 ^ ctr[1] ^ k0, lo1, hi0 ^ ctr[3] ^ k1, lo0]
    words = np.empty((5, n), dtype=np.uint64)
    for w in range(4):
        words[w] = ctr[w][0]
    words[4] = ctr[0][1]
    words >>= np.uint64(11)
    # shot-major as the rows of a generator's draws, each uniform's column contiguous
    return (words * (1.0 / 9007199254740992.0)).T


def _signed_sum(sampler: PreparedSampler, N: int, seed: int, stream: int) -> float:
    """Sum of sign * outcome over shots 0..N-1 of one estimator stream, added in shot order."""
    total = 0.0
    for j0 in range(0, N, _UNIFORM_BLOCK):
        signs, outcomes = _shots(sampler, _uniforms(seed, stream, j0, min(_UNIFORM_BLOCK, N - j0)))
        terms = signs * outcomes
        if j0 == 0:
            first = terms[0]
        last = terms[-1]
        # a sequential running sum, as the per-shot loop adds
        terms[0] += total
        total = np.cumsum(terms)[-1]
    for j, term in ((0, first), (N - 1, last)):
        rec = single_shot(sampler, shot_rng(seed, stream, j))
        if rec.sign_product * rec.outcome != term:
            raise RuntimeError(f"batched shot (seed={seed}, stream={stream}, j={j}) differs from single_shot")
    return float(total)


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
    _check_address(seed, stream, N - 1)
    mean = _signed_sum(prepare_sampler(mat, rho, O), N, seed, stream) / N
    return mat.resolution**2 * O.scale * mean, mean
