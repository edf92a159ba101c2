"""Grid evaluation of approximation methods against exact evolution.

Builds batched approximants over a time grid, reusing one order-2chi
schedule evaluation per distinct time-scale magnitude |b| (the repetition
scales 1/r, the Childs-Wiebe nodes 1/l and every block node b share the
cache) and one exact evolution per grid, and fits order-scaling slopes in an
adaptive window above the double-precision noise floor.

The cache answers sizes |b| only.  It builds S_2chi(|b| t) by Suzuki's
five-fold recursion (:func:`~mpfsim.schedules.suzuki_recursion`, which
:func:`~mpfsim.ensembles.materialize` runs at one time point on S_2 leaves
batched over every |b|) from S_2 builds batched over the grid; a negative
node reads S(-|b| t) = S(|b| t)^dagger, which
:func:`~mpfsim.mpf.mpf_matrices` forms in its scratch buffer (every Suzuki
formula is palindromic).  The ``distance`` and ``slope`` commands walk
their tau grid in chunks, each with its own cache, of as many points as
fit one (d, d) matrix each in the :data:`~mpfsim.ensembles.BATCH_BYTES`
budget that leaf builds and shot batches share
(:func:`~mpfsim.ensembles.matrices_per_batch`); every point is computed
independently, so a chunked curve is bitwise the whole-grid one.  Within a
chunk an entry lives until its last reader: ``distance`` drops, before
each method, every size that neither it nor a later method reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import Method, bound_for, ts_bound
from .mpf import ChildsWiebe, MPFSpec, cw_coefficients
from .mpf import mpf_matrices as method_matrices
from .operators import HamiltonianSpec, exact_evolutions, lambda_norm
from .schedules import merge_adjacent, s2_schedule, schedule_matrices, suzuki_recursion

__all__ = [
    "SuzukiGridCache",
    "method_matrices",
    "ts_formula",
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
    """Batched order-2chi Suzuki evaluations S(|b| t) over a fixed time grid.

    A lookup takes a size |b| >= 0 and refuses a negative scale: S(b t) for
    b < 0 is the conjugate transpose of the |b| entry, which the caller
    forms.  S_2chi(|b| t) is built on the first lookup of |b| by
    :func:`~mpfsim.schedules.suzuki_recursion` from batched S_2 builds:
    2^(chi-1) of them per |b|, each 2L-1 merged steps long.  ``_cache``
    holds the entries by size until :meth:`keep_only` drops them.
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

    def __call__(self, size: float) -> np.ndarray:
        size = float(size)
        if not size >= 0:
            raise ValueError(f"the schedule cache takes a size |b| >= 0, not {size}")
        if size not in self._cache:
            s2 = merge_adjacent(s2_schedule(self.H.L))
            self._cache[size] = suzuki_recursion(self.chi, size, lambda y: schedule_matrices(s2, self.H, y * self.ts))
        return self._cache[size]

    def keep_only(self, sizes) -> None:
        """Drop every entry whose size is not in ``sizes``."""
        for size in self._cache.keys() - set(sizes):
            del self._cache[size]


def ts_formula(chi: int, r: int) -> ChildsWiebe:
    """Repeated Trotter-Suzuki S_2chi(t/r)^r as a formula: the one-entry
    Childs-Wiebe formula ells = (r,), whose weight solves to exactly 1."""
    return cw_coefficients(chi, 0, (r,))


def ts_matrices(H: HamiltonianSpec, chi: int, r: int, ts: np.ndarray, cache: SuzukiGridCache | None = None) -> np.ndarray:
    """Repeated Trotter-Suzuki approximant S_2chi(t/r)^r over the grid: the operator of :func:`ts_formula`."""
    return method_matrices(ts_formula(chi, r), H, ts, cache)


def distance_curve(
    H: HamiltonianSpec,
    method: Method,
    taus: np.ndarray,
    chi: int,
    reps: int,
    spec: MPFSpec | None = None,
    cache: SuzukiGridCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(distances, bounds) of one method over a tau = Lambda * t grid.

    exact - approx is formed in the approximant's own array.
    """
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
    np.subtract(exact, approx, out=approx)
    return np.linalg.norm(approx, 2, axis=(1, 2)), bounds


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
