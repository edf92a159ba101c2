"""Brute-force references the tests check the sampling code against."""

import itertools

import numpy as np

from mpfsim.bounds import hoeffding_shots
from mpfsim.sampling import expected_value, prepare_sampler, shot_rng, single_shot


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
