"""Grid evaluation of approximation methods against exact evolution.

Builds batched approximants over a time grid, reusing one order-2chi
schedule evaluation per distinct time-scale value (the repetition scales
1/r, the Childs-Wiebe nodes 1/l and every block node b share the cache) and
one exact evolution per grid, and fits order-scaling slopes in an adaptive
window above the double-precision noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import Method, bound_for, ts_bound
from .mpf import MPFSpec
from .mpf import mpf_matrices as method_matrices
from .operators import HamiltonianSpec, exact_evolutions, lambda_norm
from .schedules import merge_adjacent, schedule_matrices, suzuki_schedule

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
# factors plateau near this level (measured: ~1.5e-12 for the 2091-step
# order-4 schedules of the 210-term model); bound-validity checks allow it
# additively so the theory check stays meaningful where bounds dive under
# the representable measurement accuracy.  The same level bounds the slope
# fit window from below.
DISTANCE_NOISE_FLOOR = 1e-11


class SuzukiGridCache:
    """Batched order-2chi schedule evaluations over a fixed time grid."""

    def __init__(self, H: HamiltonianSpec, chi: int, ts: np.ndarray):
        self.H = H
        self.chi = chi
        self.ts = np.asarray(ts, dtype=float)
        self._sched = merge_adjacent(suzuki_schedule(chi, H.L))
        self._cache: dict[float, np.ndarray] = {}
        self._exact: np.ndarray | None = None

    def exact(self) -> np.ndarray:
        """Exact propagators over the grid, computed on first use."""
        if self._exact is None:
            self._exact = exact_evolutions(self.H, self.ts)
        return self._exact

    def __call__(self, scale: float) -> np.ndarray:
        key = float(scale)
        if key not in self._cache:
            self._cache[key] = schedule_matrices(self._sched, self.H, key * self.ts)
        return self._cache[key]

    def prewarm(self, scales, max_workers: int = 1) -> None:
        """Build all distinct scales up front, optionally in a thread pool.

        Each build writes its own key, so results are independent of
        scheduling; the heavy work is BLAS, which releases the GIL.
        """
        missing = sorted({float(s) for s in scales} - set(self._cache))
        if not missing:
            return
        if max_workers <= 1:
            for s in missing:
                self(s)
            return
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(lambda s: schedule_matrices(self._sched, self.H, s * self.ts), missing))
        for s, mats in zip(missing, results):
            self._cache[s] = mats


def ts_matrices(H: HamiltonianSpec, chi: int, r: int, ts: np.ndarray, cache: SuzukiGridCache | None = None) -> np.ndarray:
    """Repeated Trotter-Suzuki approximant S_2chi(t/r)^r over the grid."""
    cache = cache or SuzukiGridCache(H, chi, ts)
    base = cache(1.0 / r)
    out = base
    for _ in range(r - 1):
        out = out @ base
    return out


def _batched_spectral_distance(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.norm(A[i] - B[i], 2) for i in range(A.shape[0])])


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
    return _batched_spectral_distance(exact, approx), bounds


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    t_window: tuple[float, float]
    n_points: int


def fit_order_slope(
    distances_fn,
    t_min: float = 1e-6,
    t_max: float = 3.0,
    n_grid: int = 72,
    window: tuple[float, float] = (1e-11, 1e-4),
    min_points: int = 6,
    min_span_decades: float = 0.5,
) -> SlopeFit:
    """Least-squares log-log slope fitted where distances are trustworthy.

    ``distances_fn(ts) -> distances`` is evaluated on a log grid; only points
    with distance inside ``window`` enter the fit (below it is float noise,
    above it the leading Taylor order no longer dominates).  Raises
    ``ValueError`` when fewer than ``min_points`` clean points remain or they
    span less than ``min_span_decades`` decades of t.
    """
    ts = np.logspace(math.log10(t_min), math.log10(t_max), n_grid)
    dists = np.asarray(distances_fn(ts))
    keep = (dists >= window[0]) & (dists <= window[1])
    if np.count_nonzero(keep) < min_points:
        raise ValueError(
            f"insufficient clean points for a slope fit: {np.count_nonzero(keep)} "
            f"in window {window}; widen the grid [{t_min}, {t_max}]"
        )
    tk, dk = ts[keep], dists[keep]
    span = math.log10(tk[-1] / tk[0])
    if span < min_span_decades:
        raise ValueError(f"clean t-window spans only {span:.2f} decades (< {min_span_decades})")
    slope, intercept = np.polyfit(np.log10(tk), np.log10(dk), 1)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        t_window=(float(tk[0]), float(tk[-1])),
        n_points=int(len(tk)),
    )
