"""Grid evaluation of approximation methods against exact evolution.

Builds batched approximants over a time grid, reusing one order-2chi
schedule evaluation per distinct time-scale magnitude |b| (the repetition
scales 1/r, the Childs-Wiebe nodes 1/l and every block node b share the
cache) and one exact evolution per grid, and fits order-scaling slopes in an
adaptive window above the double-precision noise floor.

The cache builds S_2chi(|b| t) by Suzuki's five-fold recursion from batched
S_2 builds, and returns S(-|b| t) = S(|b| t)^dagger for a negative node: every
Suzuki formula is palindromic.  Only the |b| entries are stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import Method, bound_for, ts_bound
from .mpf import MPFSpec, cw_coefficients
from .mpf import mpf_matrices as method_matrices
from .operators import HamiltonianSpec, exact_evolutions, lambda_norm
from .schedules import merge_adjacent, s2_schedule, schedule_matrices, suzuki_constant

__all__ = [
    "SuzukiGridCache",
    "method_matrices",
    "ts_matrices",
    "distance_curve",
    "SlopeFit",
    "fit_order_slope",
    "DISTANCE_NOISE_FLOOR",
]

# Spectral distances of products of thousands of double-precision matrix
# factors plateau below this level (measured at tau <= 1e-2, chi = 2,
# R = 3: at most 5.6e-14 on the 210-term SYK(10) model, whose terms are
# all exact row rotations, and 1.5e-12 when each step was applied in the
# term's eigenbasis); bound-validity checks allow it additively so the
# theory check stays meaningful where bounds dive under the representable
# measurement accuracy.  The same level bounds the slope fit window from
# below.
DISTANCE_NOISE_FLOOR = 1e-11

# Slope fits: log-grid size, the distance window a fitted point must lie in
# (below it is float noise, above it the leading Taylor order no longer
# dominates), and the fewest clean points and decades of t a fit may rest on.
SLOPE_GRID_POINTS = 72
SLOPE_WINDOW = (DISTANCE_NOISE_FLOOR, 1e-4)
SLOPE_MIN_POINTS = 6
SLOPE_MIN_SPAN_DECADES = 0.5


class SuzukiGridCache:
    """Batched order-2chi Suzuki evaluations S(b t) over a fixed time grid.

    S_2chi(|b| t) is built on the first lookup of |b| by the recursion
    S_2chi(t) = S_2chi-2(s t)^2 S_2chi-2((1-4s) t) S_2chi-2(s t)^2 with
    s = suzuki_constant(chi-1), down to batched S_2 builds: 2^(chi-1) of them
    per |b|, each 2L-1 merged steps long.  A lookup of b < 0 returns the
    conjugate transpose of the |b| entry, which equals S(b t) because the
    formula is palindromic; it is computed on each such lookup and not
    stored, so ``_cache`` holds only the |b| entries.  Results equal the
    flat ``suzuki_schedule`` build in exact arithmetic, not bitwise.
    """

    def __init__(self, H: HamiltonianSpec, chi: int, ts: np.ndarray):
        if chi < 1:
            raise ValueError("chi must be >= 1")
        self.H = H
        self.chi = chi
        self.ts = np.asarray(ts, dtype=float)
        self._cache: dict[float, np.ndarray] = {}
        self._exact: np.ndarray | None = None

    def exact(self) -> np.ndarray:
        """Exact propagators over the grid, computed on first use."""
        if self._exact is None:
            self._exact = exact_evolutions(self.H, self.ts)
        return self._exact

    def __call__(self, scale: float) -> np.ndarray:
        key = float(scale)
        size = abs(key)
        if size not in self._cache:
            self._cache[size] = self._build(self.chi, size)
        entry = self._cache[size]
        return entry if key >= 0 else entry.conj().transpose(0, 2, 1)

    def _build(self, chi: int, scale: float) -> np.ndarray:
        """S_2chi(scale * t) over the grid, factors in the order ``suzuki_schedule`` concatenates."""
        if chi == 1:
            return schedule_matrices(merge_adjacent(s2_schedule(self.H.L)), self.H, scale * self.ts)
        s = suzuki_constant(chi - 1)
        outer = self._build(chi - 1, s * scale)
        outer = outer @ outer
        return outer @ self._build(chi - 1, (1.0 - 4.0 * s) * scale) @ outer


def ts_matrices(H: HamiltonianSpec, chi: int, r: int, ts: np.ndarray, cache: SuzukiGridCache | None = None) -> np.ndarray:
    """Repeated Trotter-Suzuki approximant S_2chi(t/r)^r over the grid: the
    one-entry Childs-Wiebe formula ells = (r,), whose weight solves to exactly 1."""
    return method_matrices(cw_coefficients(chi, 0, (r,)), H, ts, cache)


def distance_curve(
    H: HamiltonianSpec,
    method: Method,
    taus: np.ndarray,
    chi: int,
    reps: int,
    spec: MPFSpec | None = None,
    cache: SuzukiGridCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, bounds) of one method over a tau = Lambda * t grid."""
    taus = np.asarray(taus, dtype=float)
    lam = lambda_norm(H)
    ts = taus / lam
    cache = cache or SuzukiGridCache(H, chi, ts)
    exact = cache.exact()
    if method == Method.TROTTER_SUZUKI:
        approx = ts_matrices(H, chi, reps, ts, cache)
        bounds = np.array([ts_bound(chi, reps, lam, t) for t in ts])
    else:
        if spec is None:
            raise ValueError(f"method {method} requires a built MPF spec")
        approx = method_matrices(spec, H, ts, cache)
        bounds = np.array([bound_for(spec, lam, t) for t in ts])
    return np.linalg.norm(exact - approx, 2, axis=(1, 2)), bounds


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    t_window: tuple[float, float]
    n_points: int


def fit_order_slope(distances_fn, t_min: float, t_max: float) -> SlopeFit:
    """Least-squares log-log slope fitted where distances are trustworthy.

    ``distances_fn(ts) -> distances`` is evaluated on a log grid over
    [``t_min``, ``t_max``] (the ``slope`` command's ``--t-min``/``--t-max``
    declare the program's range); only points
    with distance inside ``SLOPE_WINDOW`` enter the fit.  Raises
    ``ValueError`` when fewer than ``SLOPE_MIN_POINTS`` clean points remain or
    they span less than ``SLOPE_MIN_SPAN_DECADES`` decades of t.
    """
    ts = np.logspace(math.log10(t_min), math.log10(t_max), SLOPE_GRID_POINTS)
    dists = np.asarray(distances_fn(ts))
    keep = (dists >= SLOPE_WINDOW[0]) & (dists <= SLOPE_WINDOW[1])
    if np.count_nonzero(keep) < SLOPE_MIN_POINTS:
        raise ValueError(
            f"insufficient clean points for a slope fit: {np.count_nonzero(keep)} "
            f"in window {SLOPE_WINDOW}; widen the grid [{t_min}, {t_max}]"
        )
    tk, dk = ts[keep], dists[keep]
    span = math.log10(tk[-1] / tk[0])
    if span < SLOPE_MIN_SPAN_DECADES:
        raise ValueError(f"clean t-window spans only {span:.2f} decades (< {SLOPE_MIN_SPAN_DECADES})")
    slope, _ = np.polyfit(np.log10(tk), np.log10(dk), 1)
    return SlopeFit(
        slope=float(slope),
        t_window=(float(tk[0]), float(tk[-1])),
        n_points=int(len(tk)),
    )
