"""Brute-force references and paper formulas the tests check the program code against."""

import itertools

import numpy as np

from mpfsim.bounds import hoeffding_shots
from mpfsim.operators import sandwich, spectral_norm
from mpfsim.sampling import ShotRecord, expected_value, prepare_sampler, shot_rng, single_shot
from mpfsim.schedules import ExponentSchedule


def s1_schedule(L):
    """First-order formula: every term once, ascending, alpha = 1."""
    if L < 1:
        raise ValueError("L must be >= 1")
    return ExponentSchedule(tuple((k, 1.0) for k in range(L)), L=L)


def lemma_closeness_check(U, V, Xi, O, rho):
    """Check |tr(O U rho U†) - Xi^2 tr(O V rho V†)| <= 3 ||Xi V - U||.

    Returns (lhs, rhs, holds).  Requires the stored observable norm <= 1,
    which :class:`mpfsim.operators.Observable` guarantees by construction.
    """
    lhs = abs(sandwich(O, rho, U, U) - Xi**2 * sandwich(O, rho, V, V))
    rhs = 3.0 * spectral_norm(Xi * V - U)
    return lhs, rhs, bool(lhs <= rhs + 1e-12)


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
    sampler = prepare_sampler(mat, rho, O)
    hits = 0
    for s in range(trials):
        total = 0.0
        for j in range(n_shots):
            rec = single_shot(sampler, shot_rng(seed, s, j))
            total += rec.sign_product * rec.outcome
        hits += abs(total / n_shots - target) <= epsilon
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
