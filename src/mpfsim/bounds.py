"""Closed-form error bounds, oracle counts and shot planning.

All bound formulas are stated in terms of tau = Lambda * t with
Lambda = sum_k ||h_k||.  The weight-and-scale factor zeta of the matching
and closed-form kinds carries the node magnitudes of every drawn block
combination raised to the full remainder order: the Taylor remainder of a
product of blocks scaled by b_1..b_r is controlled by
(sum_i |b_i| * g * Lambda * t)^(2*chi*R+1) / (2*chi*R+1)!, so the |b|-sum
enters at that power, not linearly.  A repeated block S(b t)^p counts with
scale |b| p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mpf import MPFSpec, branch_series
from .operators import Observable, QuantumState, spectral_norm
from .schedules import suzuki_merged_count

__all__ = [
    "Method",
    "ShotPlan",
    "g_factor",
    "ts_bound",
    "cw_bound",
    "zeta",
    "zeta_matching",
    "zeta_cf",
    "new_bound",
    "bound_for",
    "depth_report",
    "ts_oracle_calls",
    "hoeffding_shots",
    "resolution_shots",
    "lemma_closeness_check",
]


class Method(str, Enum):
    TROTTER_SUZUKI = "ts"
    CHILDS_WIEBE = "cw"
    MATCHING = "matching"
    CLOSED_FORM = "cf"


@dataclass(frozen=True)
class ShotPlan:
    epsilon: float
    delta: float
    Xi: float
    N: int


def g_factor(chi: int) -> float:
    """Suzuki coefficient growth factor (4 chi / 5) (5/3)^(chi-1)."""
    if chi < 1:
        raise ValueError("chi must be >= 1")
    return (4.0 * chi / 5.0) * (5.0 / 3.0) ** (chi - 1)


def ts_bound(chi: int, r: int, Lambda: float, t: float) -> float:
    """Repeated Trotter-Suzuki error bound 2 (g tau / r)^(2chi+1) / (2chi+1)!."""
    if r < 1:
        raise ValueError("need r >= 1")
    tau = Lambda * t
    return 2.0 * (g_factor(chi) * tau / r) ** (2 * chi + 1) / math.factorial(2 * chi + 1)


def cw_bound(chi: int, K: int, C: np.ndarray, Lambda: float, t: float) -> float:
    """Childs-Wiebe error bound; its block scales sum to one, so no zeta."""
    n = 2 * (chi + K) + 1
    one_norm = float(np.sum(np.abs(C)))
    return (1.0 + g_factor(chi) ** n * one_norm) * (Lambda * t) ** n / math.factorial(n)


def zeta(spec: MPFSpec) -> float:
    """Weight-and-scale factor: the moment of every branch at order n = 2chiR+1, summed.

    A branch's moment, the sum over its entry combinations of prod |C| times
    (sum |b| power)^n, is n! [z^n] prod_layers (sum_q |C_q| exp(|b_q| power_q z)),
    read off :func:`~mpfsim.mpf.branch_series`; the generating-function route
    keeps the cost polynomial where the nested sum is exponential in the
    number of layers.
    """
    n = 2 * spec.chi * spec.R + 1
    return sum(float(branch_series(branch, n, magnitudes=True)[n]) * math.factorial(n) for branch in spec.branches)


zeta_matching = zeta_cf = zeta


def new_bound(chi: int, R: int, zeta: float, Lambda: float, t: float) -> float:
    """Error bound (1 + zeta g^(2chiR+1)) (Lambda t)^(2chiR+1) / (2chiR+1)!."""
    n = 2 * chi * R + 1
    return (1.0 + zeta * g_factor(chi) ** n) * (Lambda * t) ** n / math.factorial(n)


def bound_for(spec: MPFSpec, Lambda: float, t: float) -> float:
    """The bound formula of a built spec.

    Childs-Wiebe block scales sum to one, so its bound uses the exact weight
    1-norm rather than the generic moment (which differs in the last ulp).
    """
    if spec.kind == "cw":
        return cw_bound(spec.chi, spec.K, spec.C, Lambda, t)
    # One walk under two names; each kind calls its own (perfbench wraps both).
    zeta_of = zeta_matching if spec.kind == "matching" else zeta_cf
    return new_bound(spec.chi, spec.R, zeta_of(spec), Lambda, t)


def depth_report(method: Method, chi: int, n_blocks: int, L: int) -> tuple[int, int]:
    """(depth_merged, depth_blocks) of the deepest sampled circuit.

    ``depth_blocks`` counts second-order sub-blocks, n_blocks * 2 * 5^(chi-1),
    the convention of per-method depth comparisons; ``depth_merged`` counts
    merged single-term exponentials including the seam fusions between
    consecutive order-2chi blocks.
    """
    per_block_exponentials = suzuki_merged_count(chi, L)
    depth_merged = n_blocks * per_block_exponentials - (n_blocks - 1)
    depth_blocks = n_blocks * 2 * 5 ** (chi - 1)
    return depth_merged, depth_blocks


def ts_oracle_calls(chi: int, L: int, tau: float, epsilon: float) -> int:
    """Oracle-count bound ceil(2 L 5^(2chi) (L tau)^(1+1/2chi) / eps^(1/2chi))."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    if tau <= 0:
        raise ValueError("tau must be positive")
    value = 2 * L * 5 ** (2 * chi) * (L * tau) ** (1 + 1 / (2 * chi)) / epsilon ** (1 / (2 * chi))
    return math.ceil(value)


def hoeffding_shots(epsilon: float, delta: float) -> ShotPlan:
    """Shots for |sample mean - truth| <= eps with confidence 1 - delta.

    The source statement prints log; its derivation runs through the
    exponential form of Hoeffding's inequality, so natural log is the
    correct reading and is what is used here.
    """
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return ShotPlan(epsilon, delta, 1.0, math.ceil(2.0 * math.log(2.0 / delta) / epsilon**2))


def resolution_shots(Xi: float, epsilon: float, delta: float) -> ShotPlan:
    """Shots with the resolution penalty: ceil(8 ln(2/delta) (Xi/eps)^2)."""
    if Xi < 1:
        raise ValueError("Xi must be >= 1")
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    return ShotPlan(epsilon, delta, Xi, math.ceil(8.0 * math.log(2.0 / delta) * (Xi / epsilon) ** 2))


def lemma_closeness_check(
    U: np.ndarray,
    V: np.ndarray,
    Xi: float,
    O: Observable,
    rho: QuantumState,
) -> tuple[float, float, bool]:
    """Check |tr(O U rho U†) - Xi^2 tr(O V rho V†)| <= 3 ||Xi V - U||.

    Returns (lhs, rhs, holds).  Requires the stored observable norm <= 1,
    which :class:`Observable` guarantees by construction.
    """
    dm = rho.as_density()
    lhs = abs(
        np.trace(O.matrix @ U @ dm @ U.conj().T).real
        - Xi**2 * np.trace(O.matrix @ V @ dm @ V.conj().T).real
    )
    eps_hat = spectral_norm(Xi * V - U)
    rhs = 3.0 * eps_hat
    return float(lhs), float(rhs), bool(lhs <= rhs + 1e-12)
