"""Multi-product formulas: Childs-Wiebe, matching and closed-form kinds.

A multi-product formula combines order-2chi product-formula blocks so the
Taylor expansion of the combination matches the exact propagator to a higher
order.  Every kind is read through one canonical form, ``spec.branches``:

    sum_branches prod_layers sum_q C_q S(b_q t)^power_q

Childs-Wiebe specs are one branch holding one layer of entries
``(C_q, 1/l_q, l_q)``; matching specs are one branch whose R layers are the
node blocks; closed-form specs are R branches, branch r being the shift
block r-1 times followed by correction block r.  Everything downstream
(operators, scalar series, the bound's zeta, sampling ensembles) is one walk
over that form, so a new family only needs a constructor.

The node kinds (matching and closed-form, ``NODE_KINDS``) hold their blocks
in one ``blocks`` tuple in spec-file order: block i is the ``b<i>`` of a
spec file, numbered from the class's ``first_block`` (matching 1..R, the
closed-form shift block 0 then 1..R).  This module alone counts and numbers
node blocks; :func:`spec_from_b` builds either kind from its node vectors.

Block weights ``C`` come from Vandermonde systems in the node vector ``b``;
the resolution factor (sum over branches of the product of layer 1-norms) is
the sampling overhead each combination incurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar

import numpy as np

from .ensembles import SamplingEnsemble
from .operators import HamiltonianSpec
from .schedules import merge_adjacent, s2_schedule

__all__ = [
    "IllConditionedSystemError",
    "MatchingSolveError",
    "LBlock",
    "Layer",
    "ChildsWiebe",
    "MatchingMPF",
    "ClosedFormMPF",
    "MPFSpec",
    "NODE_KINDS",
    "solve_vandermonde",
    "cw_coefficients",
    "matching_nu",
    "build_lblock",
    "build_matching",
    "build_closedform",
    "spec_from_b",
    "mpf_matrix",
    "scale_sizes",
    "mpf_matrices",
    "branch_series",
    "scalar_series",
    "mpf_ensemble",
]

CONDITION_LIMIT = 1e14
RESIDUAL_RTOL = 1e-9
REFINEMENT_STEPS = 2
MATCHING_MAX_ITERATIONS = 200
MATCHING_RESIDUAL_TARGET = 1e-12
BLOCK_MEMO_SIZE = 64


class IllConditionedSystemError(ValueError):
    """Vandermonde system too ill-conditioned to produce trustworthy weights."""


class MatchingSolveError(RuntimeError):
    """The matching coefficient system admitted no real solution in budget."""


def _vandermonde(b: np.ndarray) -> np.ndarray:
    """B[j, q] = b_q ** j."""
    return np.vander(b, len(b), increasing=True).T


def solve_vandermonde(b: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve B C = nu for the block weights; returns (C, condition estimate).

    Partial-pivot LU through ``numpy.linalg.solve`` plus a couple of
    refinement sweeps with extended-precision residuals.  Systems whose
    condition estimate exceeds ``CONDITION_LIMIT`` or whose refined residual
    stays above ``RESIDUAL_RTOL`` relative are rejected: their weights would
    be garbage and every downstream quantity with them.
    """
    b = np.asarray(b, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if b.ndim != 1 or b.shape != nu.shape:
        raise ValueError("b and nu must be 1-d vectors of equal length")
    n = len(b)
    if n == 0:
        raise ValueError("empty system")
    sep = np.abs(np.subtract.outer(b, b))[~np.eye(n, dtype=bool)]
    if n > 1 and np.min(sep) == 0.0:
        raise IllConditionedSystemError("coincident b nodes")
    B = _vandermonde(b)
    cond = float(np.linalg.cond(B))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedSystemError(f"condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}")
    C = np.linalg.solve(B, nu)
    B_hi = B.astype(np.longdouble)
    nu_hi = nu.astype(np.longdouble)

    def resid_of(x: np.ndarray) -> float:
        return float(np.max(np.abs(B_hi @ x.astype(np.longdouble) - nu_hi)))

    best, best_resid = C, resid_of(C)
    for _ in range(REFINEMENT_STEPS):
        resid = B_hi @ best.astype(np.longdouble) - nu_hi
        trial = best - np.linalg.solve(B, resid.astype(float))
        trial_resid = resid_of(trial)
        if trial_resid >= best_resid:
            break
        best, best_resid = trial, trial_resid
    if best_resid > RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(nu)))):
        raise IllConditionedSystemError(
            f"residual {best_resid:.3e} above {RESIDUAL_RTOL:g} relative"
        )
    return best, cond


class _SeriesMemo:
    """Each layer's sum_q C_q exp(b_q power_q x) series, computed once per (order, magnitudes)."""

    @cached_property
    def _series(self) -> dict[tuple[int, bool], np.ndarray]:
        return {}

    def series(self, order: int, magnitudes: bool = False) -> np.ndarray:
        """Read-only coefficients in x^k of sum_q C_q exp(b_q power_q x), through ``order``."""
        key = (order, magnitudes)
        out = self._series.get(key)
        if out is None:
            C, b = (np.abs(self.C), np.abs(self.b)) if magnitudes else (self.C, self.b)
            inv_k = 1.0 / np.arange(1, order + 1)
            terms = np.ones((len(b), order + 1))  # terms[q, k] = (b_q power_q)^k / k!
            terms[:, 1:] = np.cumprod((b * self.power)[:, None] * inv_k, axis=1)
            out = C @ terms
            out.setflags(write=False)
            self._series[key] = out
        return out


@dataclass(frozen=True)
class LBlock(_SeriesMemo):
    """One node block: weights C realizing target coefficients nu at nodes b.

    A block is also a layer of the canonical form, every entry to the first
    power.
    """

    b: np.ndarray
    nu: np.ndarray
    C: np.ndarray
    one_norm: float
    cond: float

    @cached_property
    def power(self) -> np.ndarray:
        return np.ones(len(self.b), dtype=int)


@lru_cache(maxsize=BLOCK_MEMO_SIZE)
def _solved_block(b_bytes: bytes, nu_bytes: bytes) -> LBlock | str:
    """The block of one (b, nu) system, or the message its solve failed with."""
    b, nu = np.frombuffer(b_bytes), np.frombuffer(nu_bytes)  # read-only views
    try:
        C, cond = solve_vandermonde(b, nu)  # the module global, so wrappers see each real solve
    except IllConditionedSystemError as exc:
        return str(exc)  # not the exception: it would pin its traceback's frames
    C.setflags(write=False)
    return LBlock(b=b, nu=nu, C=C, one_norm=float(np.sum(np.abs(C))), cond=cond)


def build_lblock(chi: int, R: int, b: np.ndarray, nu: np.ndarray) -> LBlock:
    """The block realizing ``nu`` at nodes ``b`` (each of length 2*chi*R+1).

    Solves are memoized: the last ``BLOCK_MEMO_SIZE`` distinct (b, nu)
    systems, keyed by their bytes, are solved once and their read-only
    blocks (b, nu and C frozen) shared, and a failed solve re-raises
    :class:`IllConditionedSystemError` with its first message.  A node
    search revisits most blocks (the simplex's axis steps and shrinks move
    only some blocks), so most builds are lookups.  A block equals the one
    a fresh solve gives, bit for bit.
    """
    b = np.asarray(b, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m = 2 * chi * R + 1
    if b.shape != (m,) or nu.shape != (m,):
        raise ValueError(f"block vectors must have length 2*chi*R+1 = {m}")
    block = _solved_block(b.tobytes(), nu.tobytes())
    if isinstance(block, str):
        raise IllConditionedSystemError(block)
    return block


@dataclass(frozen=True)
class Layer(_SeriesMemo):
    """One layer of the canonical form: sum_q C_q S(b_q t)^power_q.

    Node blocks (:class:`LBlock`) serve as layers directly.
    """

    C: np.ndarray
    b: np.ndarray
    power: np.ndarray
    one_norm: float


@dataclass(frozen=True)
class ChildsWiebe:
    chi: int
    K: int
    ells: tuple[int, ...]
    C: np.ndarray
    resolution: float
    kind: ClassVar[str] = "cw"

    @cached_property
    def branches(self) -> tuple[tuple[Layer, ...], ...]:
        ells = np.array(self.ells)
        return ((Layer(self.C, 1.0 / ells, ells, self.resolution),),)


@dataclass(frozen=True)
class MatchingMPF:
    """``blocks`` are b1..bR, the R layers of the one branch."""

    chi: int
    R: int
    blocks: tuple[LBlock, ...]
    resolution: float
    kind: ClassVar[str] = "matching"
    first_block: ClassVar[int] = 1

    @cached_property
    def branches(self) -> tuple[tuple[LBlock, ...], ...]:
        return (self.blocks,)


@dataclass(frozen=True)
class ClosedFormMPF:
    """``blocks`` are b0..bR, the shift block b0 first; branch r is b0 r-1 times, then block r."""

    chi: int
    R: int
    blocks: tuple[LBlock, ...]
    resolution: float
    kind: ClassVar[str] = "cf"
    first_block: ClassVar[int] = 0

    @cached_property
    def branches(self) -> tuple[tuple[LBlock, ...], ...]:
        shift, *corrections = self.blocks
        return tuple((shift,) * r + (blk,) for r, blk in enumerate(corrections))


MPFSpec = ChildsWiebe | MatchingMPF | ClosedFormMPF
NODE_KINDS = {cls.kind: cls for cls in (MatchingMPF, ClosedFormMPF)}


def cw_coefficients(chi: int, K: int, ells: tuple[int, ...] | None = None) -> ChildsWiebe:
    """Childs-Wiebe weights from the (K+1) x (K+1) cancellation system.

    Row zero forces sum C_q = 1; row i forces sum_q C_q / l_q^(2chi+2(i-1))
    to vanish.  The default node choice is l_q = q.
    """
    if chi < 1 or K < 0:
        raise ValueError("need chi >= 1 and K >= 0")
    if ells is None:
        ells = tuple(range(1, K + 2))
    if len(ells) != K + 1 or len(set(ells)) != K + 1 or any(l < 1 for l in ells):
        raise ValueError("ells must be K+1 distinct positive integers")
    n = K + 1
    A = np.ones((n, n))
    for i in range(1, n):
        A[i] = [float(l) ** -(2 * chi + 2 * (i - 1)) for l in ells]
    rhs = np.zeros(n)
    rhs[0] = 1.0
    C = np.linalg.solve(A, rhs)
    for _ in range(REFINEMENT_STEPS):
        resid = A.astype(np.longdouble) @ C.astype(np.longdouble) - rhs.astype(np.longdouble)
        C = C - np.linalg.solve(A, resid.astype(float))
    return ChildsWiebe(chi=chi, K=K, ells=ells, C=C, resolution=float(np.sum(np.abs(C))))


# ---------------------------------------------------------------------------
# Truncated power-series helpers (coefficient lists in x^k, Python floats).


def _poly_mul(a: list[float], b: list[float], order: int) -> list[float]:
    """Truncated product over Python floats.

    Coefficient k sums a_i b_(k-i) in increasing i.  The matching targets
    depend on that order: ``np.convolve`` sums in another and moves them by
    up to 3.6e-14.
    """
    out = [0.0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0.0:
            continue
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _nu_series(nu: np.ndarray, order: int) -> list[float]:
    """Series sum_k nu_k x^k / k! truncated at ``order``."""
    out = [0.0] * (order + 1)
    for k, nu_k in enumerate(nu[: order + 1].tolist()):
        out[k] = nu_k / math.factorial(k)
    return out


# ---------------------------------------------------------------------------
# Matching coefficient system.


def _matching_residual(nus: list[np.ndarray], chi: int, R: int) -> np.ndarray:
    """Per-order defects k! * mu_k - 1 of the block-product series, k = 1..2chiR."""
    order = 2 * chi * R
    prod = [1.0] + [0.0] * order
    for nu in nus:
        prod = _poly_mul(prod, _nu_series(nu, order), order)
    return np.array([prod[k] * math.factorial(k) - 1.0 for k in range(1, order + 1)])


def _matching_jacobian(nus: list[np.ndarray], chi: int, R: int) -> np.ndarray:
    order = 2 * chi * R
    m = 2 * chi * R
    J = np.empty((m, m))
    series = [_nu_series(nu, order) for nu in nus]
    for r in range(R):
        rest = [1.0] + [0.0] * order
        for rp in range(R):
            if rp != r:
                rest = _poly_mul(rest, series[rp], order)
        for j in range(1, 2 * chi + 1):
            col = r * 2 * chi + (j - 1)
            for k in range(1, order + 1):
                J[k - 1, col] = (rest[k - j] / math.factorial(j)) * math.factorial(k) if k >= j else 0.0
    return J


def _matching_unpack(x: np.ndarray, chi: int, R: int) -> list[np.ndarray]:
    nus = []
    for r in range(R):
        nu = np.zeros(2 * chi * R + 1)
        nu[0] = 1.0
        nu[1 : 2 * chi + 1] = x[r * 2 * chi : (r + 1) * 2 * chi]
        nus.append(nu)
    return nus


_MATCHING_TILTS = (1e-2, -1e-2, 5e-2, -5e-2, 0.1, -0.1, 0.3)


# (chi, R) is every input of the solve: its budget is the two module constants.
@lru_cache(maxsize=None)
def matching_nu(chi: int, R: int) -> tuple[np.ndarray, ...]:
    """Solve the joint coefficient system of the matching formula.

    Newton iteration on truncated formal power series: the product of the R
    block series must match the exponential series through order 2*chi*R.
    The base guess nu_k^(r) = R^-k makes every block the truncation of
    exp(x/R), already correct through order 2chi, but it is symmetric under
    block permutation and the Jacobian is exactly singular there; a small
    deterministic per-block tilt breaks the symmetry.  Several tilt
    magnitudes are tried in a fixed order, with step halving on divergence.
    The R read-only target vectors are solved once per (chi, R); a failed
    solve raises and is tried again on the next call.
    """
    if chi < 1 or R < 1:
        raise ValueError("need chi >= 1 and R >= 1")
    m = 2 * chi * R
    for tilt in _MATCHING_TILTS:
        x = np.empty(m)
        for r in range(R):
            for j, k in enumerate(range(1, 2 * chi + 1)):
                x[r * 2 * chi + j] = R ** (-float(k)) * (1.0 + tilt * (r - (R - 1) / 2.0) * k)
        converged = False
        for _ in range(MATCHING_MAX_ITERATIONS):
            F = _matching_residual(_matching_unpack(x, chi, R), chi, R)
            norm = float(np.max(np.abs(F)))
            if norm <= MATCHING_RESIDUAL_TARGET:
                converged = True
                break
            J = _matching_jacobian(_matching_unpack(x, chi, R), chi, R)
            try:
                dx = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                break
            step = 1.0
            improved = False
            for _ in range(30):
                xn = x - step * dx
                fn = float(np.max(np.abs(_matching_residual(_matching_unpack(xn, chi, R), chi, R))))
                if fn < norm:
                    x = xn
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if converged:
            nus = _matching_unpack(x, chi, R)
            for nu in nus:
                nu.setflags(write=False)
            return tuple(nus)
    raise MatchingSolveError(
        f"no real matching solution found for chi={chi}, R={R} within "
        f"{MATCHING_MAX_ITERATIONS} iterations (consider the closed-form kind instead)"
    )


@lru_cache(maxsize=None)
def _closedform_nus(chi: int, R: int) -> tuple[np.ndarray, ...]:
    """The R+1 closed-form target vectors, built once per (chi, R), read-only."""
    m = 2 * chi * R + 1
    nus = []
    for n in range(R + 1):
        nu = np.zeros(m)
        if n == 0:
            nu[2 * chi] = 1.0
        elif n == 1:
            nu[: 2 * chi + 1] = 1.0
        else:
            for k in range(1, 2 * chi + 1):
                nu[k] = (
                    math.factorial(k)
                    * math.factorial(2 * chi) ** (n - 1)
                    / math.factorial(2 * chi * (n - 1) + k)
                )
        nu.setflags(write=False)
        nus.append(nu)
    return tuple(nus)


def build_matching(chi: int, R: int, b_list) -> MatchingMPF:
    """Assemble a matching formula from R node vectors (length 2*chi*R+1 each)."""
    if len(b_list) != R:
        raise ValueError(f"matching needs {R} node vectors, got {len(b_list)}")
    nus = matching_nu(chi, R)
    blocks = tuple(build_lblock(chi, R, b, nu) for b, nu in zip(b_list, nus))
    resolution = float(np.prod([blk.one_norm for blk in blocks]))
    return MatchingMPF(chi=chi, R=R, blocks=blocks, resolution=resolution)


def build_closedform(chi: int, R: int, b_list) -> ClosedFormMPF:
    """Assemble a closed-form formula from R+1 node vectors (shift block first)."""
    if chi < 1 or R < 1:
        raise ValueError("need chi >= 1 and R >= 1")
    if len(b_list) != R + 1:
        raise ValueError(f"closed-form needs {R + 1} node vectors, got {len(b_list)}")
    # From a list: CPython's tuple() of a generator over-allocates and resizes,
    # and the freed R+1-tuples fill its free list (+0.3 MB peak on a node search).
    blocks = tuple([build_lblock(chi, R, b, nu) for b, nu in zip(b_list, _closedform_nus(chi, R))])
    resolution = float(sum(blocks[0].one_norm ** (r - 1) * blocks[r].one_norm for r in range(1, R + 1)))
    return ClosedFormMPF(chi=chi, R=R, blocks=blocks, resolution=resolution)


def spec_from_b(kind: str, chi: int, R: int, b_list) -> MatchingMPF | ClosedFormMPF:
    """The ``kind`` formula on node vectors ``b_list``, given in ``b<i>`` order."""
    if kind == "matching":
        return build_matching(chi, R, b_list)
    if kind == "cf":
        return build_closedform(chi, R, b_list)
    raise ValueError(f"kind must be 'matching' or 'cf', got {kind!r}")


# ---------------------------------------------------------------------------
# Walks over the canonical form.


def mpf_matrix(spec: MPFSpec, H: HamiltonianSpec, t: float) -> np.ndarray:
    """The averaged (generally non-unitary) operator of the formula at time t."""
    return mpf_matrices(spec, H, np.array([t]))[0]


def scale_sizes(spec: MPFSpec) -> frozenset[float]:
    """The distinct |b| of the formula's entries: the S(|b| t) its operator reads."""
    return frozenset(abs(float(b)) for branch in spec.branches for layer in branch for b in layer.b)


def mpf_matrices(spec: MPFSpec, H: HamiltonianSpec, ts: np.ndarray, cache=None) -> np.ndarray:
    """Batched :func:`mpf_matrix` over a time grid, shape (B, d, d).

    ``cache`` maps a size |b| to the schedule matrices S(|b| t) over the
    grid; pass a shared :class:`~mpfsim.sweep.SuzukiGridCache` so formulas on
    one grid reuse each other's schedule builds.  A cache built for another
    Hamiltonian, order or grid raises ``ValueError``.

    Every size of :func:`scale_sizes` is looked up before anything is
    combined, so the temporaries of the schedule builds are gone before the
    combination's buffers exist.  The combination holds four (B, d, d)
    arrays: the result, the branch product, the layer operator and one
    scratch.  A term C_q S(b_q t)^power_q is written into scratch and added
    to the layer; a node b < 0 reads S(b t) = S(|b| t)^dagger, conjugated
    into scratch through a transposed view, so no adjoint is kept.  A layer
    product is written into scratch, which then trades names with the
    branch product.  An entry to a power above 1 (Childs-Wiebe) is
    multiplied out as ``acc @ base`` through scratch and one temporary.
    The result is bitwise the one a fresh array per term and product gives.
    """
    if cache is None:
        from .sweep import SuzukiGridCache  # sweep imports this module

        cache = SuzukiGridCache(H, spec.chi, ts)
    elif cache.H is not H or cache.chi != spec.chi or not np.array_equal(cache.ts, ts):
        raise ValueError("the schedule cache was built for another Hamiltonian, order or time grid")
    entries = {size: cache(size) for size in scale_sizes(spec)}
    shape = (len(cache.ts), H.dim, H.dim)
    scratch = np.empty(shape, dtype=complex)
    out = prod = op = None
    for branch in spec.branches:
        for i, layer in enumerate(branch):
            if op is None:
                op = np.empty(shape, dtype=complex)
            op.fill(0)
            for cq, bq, power in zip(layer.C, layer.b, layer.power):
                entry = entries[abs(float(bq))]
                base = entry if bq >= 0 else np.conjugate(entry.transpose(0, 2, 1), out=scratch)
                acc = base
                for _ in range(power - 1):  # products alternate between scratch and a temporary
                    acc = np.matmul(acc, base, out=None if acc is scratch or base is scratch else scratch)
                np.multiply(cq, acc, out=scratch)
                op += scratch
            if i == 0:
                prod, op = op, prod
            else:
                np.matmul(prod, op, out=scratch)
                prod, scratch = scratch, prod
        if out is None:
            out, prod = prod, None
        else:
            out += prod
    return out


def branch_series(layers, order: int, magnitudes: bool = False) -> np.ndarray:
    """Coefficients in x^k of prod_layers sum_q C_q exp(b_q power_q x), through ``order``.

    With ``magnitudes`` every C_q and b_q enters by its absolute value, the
    form the bound's zeta reads.  Each layer's own series is computed once
    per (order, magnitudes) and kept on the layer, so a block repeated
    within a formula, or shared through the block memo of
    :func:`build_lblock` (at most ``BLOCK_MEMO_SIZE`` blocks), is not
    expanded again.
    """
    coeff = np.zeros(order + 1)
    coeff[0] = 1.0
    for layer in layers:
        coeff = np.convolve(coeff, layer.series(order, magnitudes))[: order + 1]
    return coeff


def scalar_series(spec: MPFSpec, order: int) -> np.ndarray:
    """Formal series of the formula with every block replaced by exact exponentials.

    On a single-term Hamiltonian the order-2chi schedule is exact, so the
    formula collapses to scalar combinations of exp(b x), and S(b t)^power to
    exp(b power x); the returned coefficients c_k (in x^k) must equal 1/k!
    through the formula's order for any valid spec.  This is the
    construction's independent correctness oracle.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    return sum(branch_series(branch, order) for branch in spec.branches)


def mpf_ensemble(spec: MPFSpec, L: int) -> SamplingEnsemble:
    """The formula as a sampling ensemble over the merged S_2 schedule on L terms.

    :func:`~mpfsim.ensembles.materialize` builds each order-2chi entry from
    that schedule by Suzuki's recursion and reads the distribution from
    ``spec.branches``: entry probabilities |C_q| / ||C||_1 tagged with
    sign(C_q), branches in proportion to the product of their layer 1-norms,
    so that ``resolution * E[sign * V] = mpf_matrix``.
    """
    return SamplingEnsemble(spec, merge_adjacent(s2_schedule(L)))
