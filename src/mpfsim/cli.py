"""Command-line benchmark harness.

Subcommands: ``coeffs`` (solve and print formula weights), ``bounds``
(error-bound curves over tau), ``distance`` (measured operator distances
against exact evolution), ``sample`` (shot-planned randomized estimation),
``optimize`` (node-vector search) and ``slope`` (order-scaling fit).

Exit codes: 0 success, 2 usage or config error, 3 numeric-diagnostic
failure (a failed platform self-check included), 141 when stdout is closed
early (a broken pipe).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import Method, bound_for, depth_report, resolution_shots, ts_bound
from .ensembles import materialize, matrices_per_batch
from .mpf import (
    IllConditionedSystemError,
    MatchingSolveError,
    MPFSpec,
    cw_coefficients,
    mpf_ensemble,
    scale_sizes,
    spec_from_b,
)
from .models import MODEL_NAMES, build_model
from .operators import (
    QuantumState,
    exact_evolution,
    expectation,
    hamiltonian,
    lambda_norm,
    observable,
    pauli_string,
)
from .optimize import OptimizerConfig, default_initial_b, optimize_mpf
from .sampling import expected_value, run_estimator
from .serialize import (
    format_float,
    load_mpf_spec,
    read_experiment_config,
    save_mpf_spec,
    save_optim_result,
)
from .sweep import DISTANCE_NOISE_FLOOR, SuzukiGridCache, distance_curve, fit_order_slope, ts_formula

METHOD_ORDER = (Method.TROTTER_SUZUKI, Method.CHILDS_WIEBE, Method.MATCHING, Method.CLOSED_FORM)
BOUNDS_DEPTH_TERMS = 8  # term count L for the merged depth that `bounds` reports; it builds no model


def _read_b_file(path: str) -> list[np.ndarray]:
    """One node vector per non-blank line, ``#`` starting a comment; every entry finite."""
    vectors = []
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            vector = np.array([float(x) for x in line.split()])
            if not np.all(np.isfinite(vector)):
                raise ValueError(f"{path}, line {number}: node entries must be finite")
            vectors.append(vector)
    if not vectors:
        raise ValueError(f"no node vectors found in {path}")
    return vectors


def _hamiltonian(args):
    """The two-term toy model, or the zoo model the model flags select."""
    if args.model == "toy":
        return hamiltonian([pauli_string("X"), pauli_string("Y")], label="toy")
    return build_model(args.model, n=args.n, N=args.syk_n, seed=args.model_seed)


def _add_model_flags(p: argparse.ArgumentParser, default: str = "anticommuting") -> None:
    p.add_argument("--model", default=default, choices=(*MODEL_NAMES, "toy"))
    p.add_argument("--n", type=int, default=6, help="heisenberg / free-fermion sites")
    p.add_argument("--syk-n", type=int, default=10, dest="syk_n", help="SYK majorana count")
    p.add_argument("--model-seed", type=int, default=7, help="SYK coupling seed")


# The config-file sections each subcommand reads.  A key is the dest name of
# one of the subcommand's flags; only the keys in _CONFIG_RENAMES differ.
_CONFIG_SECTIONS = {
    "bounds": ("experiment", "output"),
    "distance": ("experiment", "model", "output"),
    "optimize": ("optimize",),
}
_CONFIG_RENAMES = {("model", "name"): "model", ("model", "seed"): "model_seed", ("optimize", "r"): "R"}


class _ConfigFile(argparse.Action):
    """``--config FILE``: the values of the ``const`` sections become the subcommand's defaults.

    ``main`` then parses again, so argparse casts each value with its flag's
    ``type`` and flags given on the command line win.  That parse leaves the
    defaults as they are: argparse casts a string default only while it is
    the very object it put in the namespace.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        applied = parser.get_default(self.dest)
        if applied not in (None, path):
            raise ValueError("give --config once")
        if applied is None:
            dests = set(vars(namespace)) - {"func", self.dest}
            defaults = {self.dest: path}
            for section, values in read_experiment_config(path).items():
                if section not in self.const:
                    continue
                for key, value in values.items():
                    dest = _CONFIG_RENAMES.get((section, key), key)
                    if dest not in dests:
                        raise ValueError(f"config file {path}: [{section}] {key} names no {parser.prog} flag")
                    defaults[dest] = value
            parser.set_defaults(**defaults)
        setattr(namespace, self.dest, path)


def _add_curve_flags(p: argparse.ArgumentParser, command: str) -> None:
    """The flags ``bounds`` and ``distance`` share: config, methods, orders, spec files, tau grid, outputs."""
    p.add_argument("--config", action=_ConfigFile, const=_CONFIG_SECTIONS[command], help="ini file of defaults")
    p.add_argument("--methods", default="ts,cw,matching,cf")
    p.add_argument("--chi", type=int, default=2)
    p.add_argument("--reps", type=int, default=3, help="r = R = K + 1 at depth parity")
    p.add_argument("--matching-file", default=None)
    p.add_argument("--cf-file", default=None)
    p.add_argument("--tau-min", type=float, default=1e-3)
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--tau-points", type=int, default=60)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)


def _tau_grid(args) -> np.ndarray:
    if args.tau_min <= 0 or args.tau_max <= args.tau_min or args.tau_points < 2:
        raise ValueError("tau grid must be positive, ascending, with >= 2 points")
    return np.logspace(np.log10(args.tau_min), np.log10(args.tau_max), args.tau_points)


def _parse_methods(text: str) -> list[Method]:
    methods = []
    for name in text.split(","):
        name = name.strip()
        if name:
            try:
                methods.append(Method(name))
            except ValueError:
                raise ValueError(f"unknown method {name!r}; choose from ts,cw,matching,cf")
    if not methods:
        raise ValueError("no methods selected")
    return sorted(set(methods), key=METHOD_ORDER.index)


def _default_spec(kind: str, chi: int, K: int, R: int) -> MPFSpec:
    """Childs-Wiebe of order K, or a matching/cf formula on the default nodes."""
    if kind == "cw":
        return cw_coefficients(chi, K)
    return spec_from_b(kind, chi, R, default_initial_b(chi, R, kind))


def _specs_for(args, methods: list[Method]) -> dict[Method, MPFSpec]:
    """Build or load the formula specs the selected methods need.

    A spec file given as ``--matching-file`` or ``--cf-file`` must hold that
    kind and match ``--chi``/``--reps``.
    """
    chi, reps = args.chi, args.reps
    specs: dict[Method, MPFSpec] = {}
    for method in methods:
        if method == Method.TROTTER_SUZUKI:
            continue
        kind = method.value
        path = getattr(args, f"{kind}_file", None)
        if not path:
            specs[method] = _default_spec(kind, chi, reps - 1, reps)
            continue
        spec = load_mpf_spec(path)
        if spec.kind != kind:
            raise ValueError(f"--{kind}-file {path} holds a {spec.kind} spec, not {kind}")
        if spec.chi != chi or spec.R != reps:
            raise ValueError(f"{kind} spec file does not match --chi/--reps")
        specs[method] = spec
    return specs


def _write_outputs(args, rows: list[tuple[float, str, float, str]], series, title: str, ylabel: str) -> None:
    """Write ``rows`` to ``--csv`` and plot ``series`` to ``--svg``, where given."""
    if args.csv:
        lines = ["tau,method,value,kind"]
        lines += [f"{format_float(tau)},{method},{format_float(value)},{kind}" for tau, method, value, kind in rows]
        Path(args.csv).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    if args.svg:
        from .svgplot import log_log_plot

        log_log_plot(series, args.svg, title=title, xlabel="tau", ylabel=ylabel)
        print(f"wrote {args.svg}")


def _print_spec(spec: MPFSpec) -> None:
    if spec.kind == "cw":
        print(f"kind = cw  chi = {spec.chi}  K = {spec.K}  ells = {list(spec.ells)}")
        print(f"C  = {np.array2string(spec.C, precision=12)}")
        print(f"Xi = {format_float(spec.resolution)}")
        return
    print(f"kind = {spec.kind}  chi = {spec.chi}  R = {spec.R}")
    for i, blk in enumerate(spec.blocks, spec.first_block):
        print(f"block {i}: cond = {blk.cond:.3e}  |C|_1 = {format_float(blk.one_norm)}")
        print(f"  b  = {np.array2string(blk.b, precision=10)}")
        print(f"  nu = {np.array2string(blk.nu, precision=10)}")
        print(f"  C  = {np.array2string(blk.C, precision=10)}")
    print(f"Xi = {format_float(spec.resolution)}")


def cmd_coeffs(args) -> int:
    if args.b_file and args.kind == "cw":
        raise ValueError("--b-file gives node vectors; the cw kind has none")
    if args.b_file:
        spec = spec_from_b(args.kind, args.chi, args.R, _read_b_file(args.b_file))
    else:
        spec = _default_spec(args.kind, args.chi, args.K, args.R)
    _print_spec(spec)
    if args.out:
        save_mpf_spec(spec, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_bounds(args) -> int:
    methods = _parse_methods(args.methods)
    taus = _tau_grid(args)
    specs = _specs_for(args, methods)
    rows = []
    series = {}
    for method in methods:
        if method == Method.TROTTER_SUZUKI:
            values = [ts_bound(args.chi, args.reps, 1.0, tau) for tau in taus]
        else:
            values = [bound_for(specs[method], 1.0, tau) for tau in taus]
        series[method.value] = (list(taus), values)
        rows += [(float(tau), method.value, float(v), "bound") for tau, v in zip(taus, values)]
        merged, blocks = depth_report(method, args.chi, args.reps, BOUNDS_DEPTH_TERMS)
        print(f"{method.value}: depth_blocks = {blocks}, depth_merged = {merged} (L = {BOUNDS_DEPTH_TERMS})")
    _write_outputs(args, rows, series, "Error bounds", "bound")
    return 0


def _distance_curves(H, methods: list[Method], taus: np.ndarray, chi: int, reps: int, specs: dict[Method, MPFSpec]):
    """Each method's (distances, bounds) over ``taus``, in that order.

    The grid is walked in chunks of :func:`~mpfsim.ensembles.matrices_per_batch`
    points, outermost, each chunk with its own schedule cache, so the live
    grid arrays scale with the chunk and not with the grid.  Every tau point
    is computed independently, so the curves are bitwise the one-chunk ones.
    """
    ts = taus / lambda_norm(H)
    reads = [scale_sizes(specs[m] if m in specs else ts_formula(chi, reps)) for m in methods]
    per_chunk = matrices_per_batch(H.dim)
    curves = [([], []) for _ in methods]
    for lo in range(0, len(taus), per_chunk):
        chunk = slice(lo, lo + per_chunk)
        cache = SuzukiGridCache(H, chi, ts[chunk])
        for i, method in enumerate(methods):
            cache.keep_only(frozenset().union(*reads[i:]))  # a size lives until its last reader
            dists, bounds = distance_curve(H, method, taus[chunk], chi, reps, specs.get(method), cache)
            curves[i][0].append(dists)
            curves[i][1].append(bounds)
    return [(np.concatenate(dists), np.concatenate(bounds)) for dists, bounds in curves]


def cmd_distance(args) -> int:
    methods = _parse_methods(args.methods)
    taus = _tau_grid(args)
    H = _hamiltonian(args)
    specs = _specs_for(args, methods)
    rows = []
    dist_series = {}
    violations = 0
    for method, (dists, bvals) in zip(methods, _distance_curves(H, methods, taus, args.chi, args.reps, specs)):
        dist_series[method.value] = (list(taus), list(dists))
        for tau, dist, bound in zip(taus, dists, bvals):
            rows.append((float(tau), method.value, float(dist), "distance"))
            rows.append((float(tau), method.value, float(bound), "bound"))
            if dist > bound + DISTANCE_NOISE_FLOOR:
                violations += 1
        merged, blocks = depth_report(method, args.chi, args.reps, H.L)
        print(f"{method.value}: depth_blocks = {blocks}, depth_merged = {merged}")
    _write_outputs(args, rows, dist_series, f"Operator distance ({args.model})", "distance")
    if violations:
        print(f"BOUND VIOLATIONS: {violations} grid points exceed bound + {DISTANCE_NOISE_FLOOR:g}")
        return 3
    print("all distances within bounds")
    return 0


def cmd_sample(args) -> int:
    H = _hamiltonian(args)
    if args.mpf_file:
        spec = load_mpf_spec(args.mpf_file)
    else:
        spec = _default_spec(args.kind, args.chi, args.K, args.R)
    obs_mat = pauli_string(args.observable)
    if obs_mat.shape[0] != H.dim:
        raise ValueError(
            f"observable acts on {obs_mat.shape[0]} dims but model has {H.dim}"
        )
    O = observable(obs_mat, label=args.observable)
    if O.scale > 1.0:
        print(f"observable rescaled by {format_float(O.scale)} to satisfy norm <= 1")
    rho = QuantumState.basis(H.dim, 0)
    t = args.tau / lambda_norm(H)
    ens = mpf_ensemble(spec, H.L)
    mat = materialize(ens, H, t)
    plan = resolution_shots(mat.resolution, args.epsilon, args.delta)
    estimate, _ = run_estimator(mat, rho, O, plan.N, args.seed)
    reference = expectation(O, rho, exact_evolution(H, t))
    print(f"tau = {format_float(args.tau)}  t = {format_float(t)}  N = {plan.N}  Xi = {format_float(mat.resolution)}")
    print(f"estimate  = {format_float(estimate)}")
    print(f"reference = {format_float(reference)}  (exact tr(O U rho U+))")
    print(f"mixture   = {format_float(mat.resolution**2 * O.scale * expected_value(mat, rho, O))}  (exact ensemble mean)")
    print(f"error     = {format_float(abs(estimate - reference))}  (allowance (1+Xi)*eps = {format_float((1 + mat.resolution) * args.epsilon)})")
    return 0


def cmd_optimize(args) -> int:
    if args.kind is None:
        raise ValueError("--kind is required (flag or [optimize] config section)")
    config = OptimizerConfig(
        loss_kind=args.loss,
        p=args.p,
        tau_ref=args.tau_ref,
        hops=args.hops,
        seed=args.seed,
    )
    result = optimize_mpf(args.kind, args.chi, args.R, config)
    print(
        f"kind = {result.kind}  chi = {result.chi}  R = {result.R}  hops = {config.hops}  "
        f"seed = {config.seed}  loss = {result.config.loss_kind}"
    )
    print(f"Xi            = {format_float(result.Xi)}")
    print(f"zeta          = {format_float(result.zeta)}")
    print(f"bound(tau_ref={format_float(config.tau_ref)}) = {format_float(result.bound_at_tau_ref)}")
    spec = spec_from_b(result.kind, result.chi, result.R, result.b_list)
    if args.out_spec:
        save_mpf_spec(spec, args.out_spec)
        print(f"wrote {args.out_spec}")
    if args.out_result:
        save_optim_result(result, args.out_result)
        print(f"wrote {args.out_result}")
    return 0


def cmd_slope(args) -> int:
    H = _hamiltonian(args)
    lam = lambda_norm(H)
    method = Method(args.method)
    specs = {}
    if method == Method.TROTTER_SUZUKI:
        theory = 2 * args.chi + 1
    else:
        spec = specs[method] = _default_spec(method.value, args.chi, args.K, args.R)
        theory = 2 * (args.chi + args.K) + 1 if spec.kind == "cw" else 2 * args.chi * args.R + 1

    def distances(taus):
        return _distance_curves(H, [method], taus, args.chi, 1, specs)[0][0]

    try:
        fit = fit_order_slope(distances, t_min=args.t_min, t_max=args.t_max)
    except ValueError as exc:
        print(f"slope fit failed: {exc}")
        return 3
    ok = abs(fit.slope - theory) <= args.tol
    t_lo, t_hi = (tau / lam for tau in fit.t_window)
    print(
        f"method = {method.value}  fitted slope = {fit.slope:.4f}  theory = {theory}  "
        f"window t in [{format_float(t_lo)}, {format_float(t_hi)}]  points = {fit.n_points}"
    )
    print("within tolerance" if ok else f"OUTSIDE tolerance {args.tol}")
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpfsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="solve and print formula weights")
    p.add_argument("--kind", required=True, choices=("cw", "matching", "cf"))
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--R", type=int, default=3)
    p.add_argument("--b-file", default=None, help="node vectors, one block per line (matching, cf)")
    p.add_argument("--out", default=None, help="write the spec file here")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("bounds", help="error-bound curves over tau")
    _add_curve_flags(p, "bounds")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("distance", help="operator distances vs exact evolution")
    _add_curve_flags(p, "distance")
    _add_model_flags(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("sample", help="randomized estimation with planned shots")
    _add_model_flags(p, default="toy")
    p.add_argument("--observable", default="Z", help="Pauli string, e.g. ZI")
    p.add_argument("--mpf-file", default=None)
    p.add_argument("--kind", default="cw", choices=("cw", "matching", "cf"))
    p.add_argument("--chi", type=int, default=1)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--R", type=int, default=2)
    p.add_argument("--tau", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("optimize", help="optimize node vectors")
    p.add_argument("--config", action=_ConfigFile, const=_CONFIG_SECTIONS["optimize"], help="ini file of defaults")
    p.add_argument("--kind", default=None, choices=("matching", "cf"))
    p.add_argument("--chi", type=int, default=2)
    p.add_argument("--R", type=int, default=3)
    p.add_argument("--p", type=float, default=None, help="loss exponent (default: 20 for matching, 10 for cf)")
    p.add_argument("--tau-ref", type=float, default=0.1)
    p.add_argument(
        "--loss",
        default=None,
        choices=("xi_pow", "bound_times_xi_pow"),
        help="objective (default: xi_pow for matching, bound_times_xi_pow for cf)",
    )
    p.add_argument("--hops", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-spec", default=None)
    p.add_argument("--out-result", default=None)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("slope", help="fit the order-scaling slope")
    p.add_argument("--method", required=True, choices=("ts", "cw", "matching", "cf"))
    p.add_argument("--chi", type=int, default=1)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--R", type=int, default=2)
    p.add_argument("--tol", type=float, default=0.5)
    p.add_argument("--t-min", type=float, default=1e-5, help="tau scan start")
    p.add_argument("--t-max", type=float, default=30.0, help="tau scan end")
    _add_model_flags(p)
    p.set_defaults(func=cmd_slope)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args(argv)  # now with the config file's values as defaults
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early: send what is still buffered nowhere, quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, IllConditionedSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatchingSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: the closed-form kind (--kind cf) always has coefficients", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # a batched build or shot differs from its one-point check
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
