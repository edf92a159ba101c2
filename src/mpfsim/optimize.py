"""Black-box optimization of the node vectors b.

No usable analytic relation between the nodes and the resolution factor is
available, so the trade-off between resolution and error bound is explored
with basin hopping around Nelder-Mead local searches.  The landscape has
many local minima; determinism is part of the contract, so the chain is
driven by a single seeded generator and identical configurations reproduce
identical results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import new_bound, zeta_cf, zeta_matching
from .mpf import NODE_KINDS, IllConditionedSystemError, spec_from_b

__all__ = [
    "OptimizerConfig",
    "OptimResult",
    "default_initial_b",
    "loss",
    "nelder_mead",
    "basin_hop",
    "optimize_mpf",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters of the search; defaults are pinned for reproducibility.

    ``loss_kind`` selects between pure resolution amplification ("xi_pow",
    value Xi^p) and the bound-weighted variant ("bound_times_xi_pow", value
    bound(tau_ref) * Xi^p).  When None it is resolved per formula kind:
    "xi_pow" for matching, "bound_times_xi_pow" for closed-form; an unset
    ``p`` likewise becomes 20 for matching and 10 for closed-form.  Xi^p alone
    never reads zeta, and the closed-form Xi minima the search reaches differ
    in zeta by orders of magnitude, so a cf search on Xi alone can end on
    nodes whose bound stays above the Childs-Wiebe bound at small tau.
    ``b_max`` bounds every node entry; when None it defaults to
    chi * R + 1, the magnitude of the initial guess.
    """

    loss_kind: str | None = None
    p: float | None = None
    tau_ref: float = 0.1
    b_max: float | None = None
    hops: int = 100
    step_scale: float = 0.5
    simplex_tol: float = 1e-8
    max_local_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.b_max is not None and self.b_max <= 0:
            raise ValueError("b_max must be positive")
        if self.simplex_tol <= 0 or self.step_scale <= 0:
            raise ValueError("tolerances and scales must be positive")
        if self.loss_kind not in (None, "xi_pow", "bound_times_xi_pow"):
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")


@dataclass(frozen=True)
class OptimResult:
    kind: str
    chi: int
    R: int
    b_list: tuple[np.ndarray, ...]
    Xi: float
    zeta: float
    bound_at_tau_ref: float
    loss_value: float
    history: tuple[float, ...] = field(repr=False)
    config: OptimizerConfig = field(repr=False)


def _resolve(config: OptimizerConfig, kind: str, chi: int, R: int) -> OptimizerConfig:
    """Fill the unset ``b_max``, ``loss_kind`` and ``p`` with their per-kind defaults."""
    if None not in (config.b_max, config.loss_kind, config.p):  # no copy per loss call
        return config
    cf = kind == "cf"
    return replace(
        config,
        b_max=float(chi * R + 1) if config.b_max is None else config.b_max,
        loss_kind=config.loss_kind or ("bound_times_xi_pow" if cf else "xi_pow"),
        p=(10.0 if cf else 20.0) if config.p is None else config.p,
    )


def default_initial_b(chi: int, R: int, kind: str) -> list[np.ndarray]:
    """Alternating-sign integer nodes (1, -1, 2, -2, ...) per block.

    One vector per node block of ``kind`` (``mpf.NODE_KINDS``): matching
    takes R, closed-form R+1; every block uses the same starting pattern of
    length 2 chi R + 1.
    """
    if kind not in NODE_KINDS:
        raise ValueError(f"kind must be 'matching' or 'cf', got {kind!r}")
    length = 2 * chi * R + 1
    pattern = []
    k = 1
    while len(pattern) < length:
        pattern.append(float(k))
        if len(pattern) < length:
            pattern.append(float(-k))
        k += 1
    return [np.array(pattern) for _ in range(NODE_KINDS[kind].first_block, R + 1)]


def loss(b_list, kind: str, chi: int, R: int, config: OptimizerConfig) -> float:
    """Loss of a candidate node set; +inf encodes every failure mode.

    Entries outside the box, non-finite entries and ill-conditioned weight
    systems, repeated entries within a block among them, all return +inf,
    which the simplex search treats as an ordinary (terrible) value.  Unset
    config fields take their per-kind defaults.
    """
    config = _resolve(config, kind, chi, R)
    for b in b_list:
        if not np.max(np.abs(b)) <= config.b_max:  # NaN fails too
            return math.inf
    try:
        spec = spec_from_b(kind, chi, R, b_list)
    except IllConditionedSystemError:
        return math.inf
    xi_pow = spec.resolution**config.p
    if config.loss_kind == "xi_pow":
        return float(xi_pow)
    zeta = zeta_matching(spec) if kind == "matching" else zeta_cf(spec)
    return float(new_bound(chi, R, zeta, 1.0, config.tau_ref) * xi_pow)


def nelder_mead(f, x0: np.ndarray, config: OptimizerConfig) -> tuple[np.ndarray, float]:
    """Plain downhill simplex: reflection, expansion, contraction, shrink.

    Stops when the simplex diameter around the incumbent drops below
    ``simplex_tol`` or after ``max_local_iters`` iterations; the returned
    point is clipped to the box.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    simplex = [x0.copy()]
    for i in range(n):
        pt = x0.copy()
        pt[i] += 0.05 * (1.0 + abs(pt[i]))
        simplex.append(pt)
    values = [f(p) for p in simplex]
    for _ in range(config.max_local_iters):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diameter = max(np.linalg.norm(p - simplex[0]) for p in simplex[1:])
        if diameter < config.simplex_tol:
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_ref = f(reflected)
        if f_ref < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_exp = f(expanded)
            if f_exp < f_ref:
                simplex[-1], values[-1] = expanded, f_exp
            else:
                simplex[-1], values[-1] = reflected, f_ref
        elif f_ref < values[-2]:
            simplex[-1], values[-1] = reflected, f_ref
        else:
            contracted = centroid + 0.5 * (simplex[-1] - centroid)
            f_con = f(contracted)
            if f_con < values[-1]:
                simplex[-1], values[-1] = contracted, f_con
            else:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
    best = int(np.argmin(values))
    b_max = config.b_max
    x_best = simplex[best] if b_max is None else np.clip(simplex[best], -b_max, b_max)
    return x_best, values[best]


def _metropolis_delta(f_new: float, f_old: float) -> float:
    """Acceptance scale: log-loss when both values are positive (the domain
    losses are powers of the resolution, always >= 1), raw difference for
    generic objectives that may go nonpositive."""
    if 0.0 < f_old < math.inf and 0.0 < f_new < math.inf:
        return math.log(f_new) - math.log(f_old)
    if math.isinf(f_new):
        return math.inf
    return f_new - f_old


def basin_hop(f, x0: np.ndarray, config: OptimizerConfig) -> tuple[np.ndarray, float, tuple[float, ...]]:
    """Seeded basin hopping around :func:`nelder_mead` local searches.

    Hop zero searches from ``x0`` directly (so hops=1 is a single local
    search); every later hop perturbs the current chain point by a uniform
    step and accepts by Metropolis at unit temperature on the loss scale of
    :func:`_metropolis_delta`.  Returns the best point ever seen with its
    loss and the per-hop best-loss history.
    """
    rng = np.random.default_rng(config.seed)
    x0 = np.asarray(x0, dtype=float)
    b_max = config.b_max

    x_cur, f_cur = nelder_mead(f, x0, config)
    x_best, f_best = x_cur, f_cur
    history = [f_best]
    for _ in range(config.hops - 1):
        trial = x_cur + rng.uniform(-config.step_scale, config.step_scale, len(x_cur))
        if b_max is not None:
            trial = np.clip(trial, -b_max, b_max)
        x_loc, f_loc = nelder_mead(f, trial, config)
        if f_loc < f_best:
            x_best, f_best = x_loc, f_loc
        delta = _metropolis_delta(f_loc, f_cur)
        if delta <= 0 or (
            math.isfinite(delta)
            and rng.random() < math.exp(-min(delta, 700.0))
        ):
            x_cur, f_cur = x_loc, f_loc
        history.append(f_best)
    return x_best, f_best, tuple(history)


def optimize_mpf(kind: str, chi: int, R: int, config: OptimizerConfig | None = None) -> OptimResult:
    """End-to-end node optimization from the default initial guess.

    Unset ``b_max``, ``loss_kind`` and ``p`` are resolved for ``kind`` and
    stored resolved in the result's config.
    """
    config = _resolve(config or OptimizerConfig(), kind, chi, R)
    b0 = default_initial_b(chi, R, kind)
    m = 2 * chi * R + 1
    n_blocks = len(b0)

    def unflatten(x: np.ndarray):
        return [x[i * m : (i + 1) * m] for i in range(n_blocks)]

    def objective(x: np.ndarray) -> float:
        return loss(unflatten(x), kind, chi, R, config)

    x_best, f_best, history = basin_hop(objective, np.concatenate(b0), config)
    b_list = tuple(np.array(b) for b in unflatten(x_best))
    spec = spec_from_b(kind, chi, R, b_list)
    zeta = zeta_matching(spec) if kind == "matching" else zeta_cf(spec)
    return OptimResult(
        kind=kind,
        chi=chi,
        R=R,
        b_list=b_list,
        Xi=spec.resolution,
        zeta=zeta,
        bound_at_tau_ref=new_bound(chi, R, zeta, 1.0, config.tau_ref),
        loss_value=f_best,
        history=history,
        config=config,
    )
