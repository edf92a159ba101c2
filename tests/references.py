"""Brute-force references and paper formulas the tests check the program code against."""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from mpfsim.bounds import hoeffding_shots
from mpfsim.operators import HamiltonianSpec, _hermitian, sandwich, spectral_norm
from mpfsim.sampling import ShotRecord, expected_value, run_estimator
from mpfsim.schedules import ExponentSchedule
from mpfsim.sweep import SuzukiGridCache


def s1_schedule(L):
    """First-order formula: every term once, ascending, alpha = 1."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return ExponentSchedule(tuple((k, 1.0) for k in range(L)), L=L)


def full_width_schedule_matrices(s, H, ts):
    """``mpfsim.schedules.schedule_matrices`` as it ran before it kept only the columns of each row's block.

    Every step updates all d^2 entries of every point.  The two must give
    the same bits, signed zeros included.
    """
    if s.L != H.L:
        raise ValueError(f"schedule addresses {s.L} terms, Hamiltonian has {H.L}")
    ts = np.asarray(ts, dtype=float)
    d, B = H.dim, len(ts)
    acc = np.tile(np.eye(d, dtype=complex), (1, B))
    for k, a in reversed(s.steps):
        term = H.terms[k]
        if term.rotation is None:
            x = (term.eigenvectors.conj().T @ acc).reshape(d, B, d)
            x *= np.exp(-1j * np.outer(term.eigenvalues, a * ts))[:, :, None]
            acc = term.eigenvectors @ x.reshape(d, B * d)
            continue
        cols, mag, phase = term.rotation
        angle = np.outer(mag, a * ts)
        x = acc.reshape(d, B, d)
        gathered = x[cols]
        gathered *= (np.sin(angle) * (-1j * phase)[:, None])[:, :, None]
        x *= np.cos(angle)[:, :, None]
        x += gathered
    return acc.reshape(d, B, d).transpose(1, 0, 2)


@dataclass(frozen=True)
class ReferenceTerm:
    """A Hamiltonian term as :func:`reference_hamiltonian` builds it: every term keeps its dense matrix."""

    matrix: np.ndarray
    label: str
    norm: float
    eigenvalues: np.ndarray | None
    eigenvectors: np.ndarray | None
    rotation: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _reference_row_rotation(a):
    nonzero = a != 0
    if np.any(np.count_nonzero(nonzero, axis=1) > 1):
        return None
    rows = np.arange(a.shape[0])
    cols = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rows)
    if np.any(cols[cols] != rows):
        return None
    upper = a[np.minimum(rows, cols), np.maximum(rows, cols)]
    v = np.where(rows < cols, upper, upper.conj())
    v[rows == cols] = upper[rows == cols].real
    mag = np.abs(v)
    phase = np.divide(v, mag, out=np.zeros_like(v), where=mag > 0)
    for x in (cols, mag, phase):
        x.setflags(write=False)
    return cols, mag, phase


def _reference_term(matrix, label, eigenbasis):
    matrix = _hermitian(np.array(matrix, dtype=complex), f"term {label!r}")
    matrix.setflags(write=False)
    rotation = _reference_row_rotation(matrix)
    if rotation is not None and not eigenbasis:
        return ReferenceTerm(matrix, label, float(rotation[1].max()), None, None, rotation)
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"term {label!r}: eigendecomposition failed: {exc}") from exc
    w = w.astype(float)
    w.setflags(write=False)
    v.setflags(write=False)
    return ReferenceTerm(matrix, label, float(np.max(np.abs(w))), w, v, rotation)


def reference_hamiltonian(terms, label="H"):
    """``mpfsim.operators.hamiltonian`` as it ran before it took its terms one at a time.

    Every term is built first and keeps its dense matrix, and the total is
    ``sum()`` over the terms' matrices.  Items are matrices or
    ``(label, matrix)`` pairs, as the models hand them.  The two must give
    the same bits.
    """
    wrapped = []
    for i, t in enumerate(terms):
        term_label, t = t if isinstance(t, tuple) else (f"{label}[{i}]", t)
        wrapped.append(_reference_term(t, term_label, eigenbasis=False))
    if not wrapped:
        raise ValueError("a Hamiltonian needs at least one term")
    dim = wrapped[0].dim
    if any(t.dim != dim for t in wrapped):
        raise ValueError("all terms must share one dimension")
    total = _reference_term(sum(t.matrix for t in wrapped), label, eigenbasis=True)
    return HamiltonianSpec(terms=tuple(wrapped), dim=dim, total=total)


def reference_mpf_matrices(spec, H, ts, cache=None):
    """sum_branches prod_layers sum_q C_q S(b_q t)^power_q with a fresh array per term and product.

    The combination loop ``mpfsim.mpf.mpf_matrices`` ran before it combined
    in fixed buffers, with its lookups made in the loop; a node b < 0 reads
    the conjugate transpose of the |b| entry, as the cache once did.  The
    two must give the same bits.
    """
    if cache is None:
        cache = SuzukiGridCache(H, spec.chi, ts)
    elif cache.H is not H or cache.chi != spec.chi or not np.array_equal(cache.ts, ts):
        raise ValueError("the schedule cache was built for another Hamiltonian, order or time grid")
    out = None
    for branch in spec.branches:
        prod = None
        for layer in branch:
            op = np.zeros((len(cache.ts), H.dim, H.dim), dtype=complex)
            for cq, bq, power in zip(layer.C, layer.b, layer.power):
                entry = cache(abs(float(bq)))
                base = entry if bq >= 0 else entry.conj().transpose(0, 2, 1)
                acc = base
                for _ in range(power - 1):
                    acc = acc @ base
                op += cq * acc
            prod = op if prod is None else prod @ op
        out = prod if out is None else out + prod
    return out


def lemma_closeness_check(U, V, Xi, O, rho):
    """Check |tr(O U rho U†) - Xi^2 tr(O V rho V†)| <= 3 ||Xi V - U||.

    Returns (lhs, rhs, holds).  Requires the stored observable norm <= 1,
    which :class:`mpfsim.operators.Observable` guarantees by construction.
    """
    lhs = abs(sandwich(O, rho, U, U) - Xi**2 * sandwich(O, rho, V, V))
    rhs = 3.0 * spectral_norm(Xi * V - U)
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


def reference_term_norm(matrix):
    """max |eigenvalue| of a Hermitian matrix, from ``np.linalg.eigh``.

    LAPACK's values-only driver (``np.linalg.eigvalsh``) agrees with this on
    every row-rotation term of the zoo, but can differ from it in the last
    bits on dense terms such as Heisenberg's.
    """
    return float(np.max(np.abs(np.linalg.eigh(matrix)[0])))


def array_poly_mul(a, b, order):
    """Truncated product of coefficient arrays, one scaled-row add per a_i.

    The numpy form that ``mpfsim.mpf._poly_mul`` replaced with Python floats;
    both must give the same bits.
    """
    out = np.zeros(order + 1)
    for i in range(min(len(a), order + 1)):
        if a[i] == 0.0:
            continue
        top = min(len(b), order + 1 - i)
        out[i : i + top] += a[i] * b[:top]
    return out


def exact_block_weights(b, nu):
    """The correctly rounded solution C of sum_q C_q b_q^j = nu_j, j = 0..n-1.

    Bjorck-Pereyra for the dual Vandermonde system (Golub & Van Loan, Matrix
    Computations, Alg. 4.6.2), run in exact rationals on the exact values of
    the float inputs and rounded to float64 once.
    """
    x = [Fraction(v) for v in np.asarray(b, dtype=float).tolist()]
    z = [Fraction(v) for v in np.asarray(nu, dtype=float).tolist()]
    n = len(x) - 1
    for k in range(n):
        for i in range(n, k, -1):
            z[i] -= x[k] * z[i - 1]
    for k in range(n - 1, -1, -1):
        for i in range(k + 1, n + 1):
            z[i] /= x[i] - x[i - k - 1]
        for i in range(k, n):
            z[i] -= z[i + 1]
    return np.array([float(v) for v in z])


def componentwise_backward_error(b, nu, C):
    """max_j |sum_q C_q b_q^j - nu_j| / (sum_q |C_q| |b_q|^j + |nu_j|), in exact arithmetic.

    The Oettli-Prager componentwise backward error of weights C (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 7): the smallest
    relative entrywise change of B and nu for which C solves B C = nu.
    """
    x = [Fraction(v) for v in np.asarray(b, dtype=float).tolist()]
    c = [Fraction(v) for v in np.asarray(C, dtype=float).tolist()]
    worst = Fraction(0)
    for j, nu_j in enumerate(np.asarray(nu, dtype=float).tolist()):
        powers = [xq**j for xq in x]
        resid = abs(sum(cq * pq for cq, pq in zip(c, powers)) - Fraction(nu_j))
        scale = sum(abs(cq * pq) for cq, pq in zip(c, powers)) + abs(Fraction(nu_j))
        if resid:
            worst = max(worst, resid / scale)
    return float(worst)


def enumerate_combos(mat):
    """Yield every (probability, sign, operator) of the full joint draw.

    Branches in order, and within a branch the per-layer entry indices in
    lexicographic order, layer 0 most significant.
    """
    for br in mat.branches:
        for combo in itertools.product(*[range(len(p)) for p in br.layer_probs]):
            p = br.probability
            sign = 1
            op = np.eye(mat.dim, dtype=complex)
            for layer_idx, q in enumerate(combo):
                p *= br.layer_probs[layer_idx][q]
                sign *= int(br.layer_signs[layer_idx][q])
                op = op @ br.layer_matrices[layer_idx][q]
            yield p, sign, op


def coverage_experiment(mat, rho, O, epsilon, delta, trials, seed):
    """Fraction of independent estimators landing within epsilon of the truth.

    Trial s draws the Hoeffding-planned number of shots of estimator stream
    s, the shots ``run_estimator(..., seed, stream=s)`` draws, and compares
    the raw sample mean against the exact expectation.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials for a meaningful coverage estimate")
    n_shots = hoeffding_shots(epsilon, delta).N
    target = expected_value(mat, rho, O)
    hits = 0
    for s in range(trials):
        mean = run_estimator(mat, rho, O, n_shots, seed, stream=s)[1]
        hits += abs(mean - target) <= epsilon
    return hits / trials


def _draw(sampler, rng):
    branch = int(np.searchsorted(sampler.branch_cum, rng.random() * sampler.branch_cum[-1]))
    branch = min(branch, len(sampler.branches) - 1)
    cum = sampler.branches[branch].combo_cum
    combo = int(np.searchsorted(cum, rng.random() * cum[-1]))
    return branch, min(combo, len(cum) - 1)


def reference_shot(sampler, rng):
    """One shot drawn with five scalar uniforms and ``np.searchsorted``.

    The per-shot contract :func:`mpfsim.sampling.single_shot` keeps bit for
    bit: arm 1's branch and combination, arm 2's, then the Born sample over
    the 2 dim (ancilla, eigenvalue) outcomes.
    """
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
