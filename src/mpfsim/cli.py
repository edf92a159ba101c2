"""Command-line benchmark harness.

Subcommands: ``coeffs`` (solve and print formula weights), ``bounds``
(error-bound curves over tau), ``distance`` (measured operator distances
against exact evolution), ``sample`` (shot-planned randomized estimation),
``optimize`` (node-vector search) and ``slope`` (order-scaling fit).

Exit codes: 0 success, 2 usage or config error, 3 numeric-diagnostic
failure.  Set MPFSIM_THREADS to parallelize independent schedule builds.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import Method, bound_for, depth_report, resolution_shots, ts_bound
from .ensembles import materialize
from .mpf import IllConditionedSystemError, MatchingSolveError, MPFSpec, cw_coefficients, mpf_ensemble
from .models import MODEL_NAMES, ModelConfig, build_model
from .operators import (
    QuantumState,
    exact_evolution,
    expectation,
    hamiltonian,
    lambda_norm,
    observable,
    pauli_string,
)
from .optimize import OptimizerConfig, default_initial_b, optimize_mpf, spec_from_b
from .sampling import expected_value, run_estimator
from .serialize import (
    format_float,
    load_mpf_spec,
    read_experiment_config,
    save_mpf_spec,
    save_optim_result,
)
from .sweep import (
    DISTANCE_NOISE_FLOOR,
    SuzukiGridCache,
    distance_curve,
    fit_order_slope,
    method_matrices,
    ts_matrices,
)

METHOD_ORDER = (Method.TROTTER_SUZUKI, Method.CHILDS_WIEBE, Method.MATCHING, Method.CLOSED_FORM)


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("MPFSIM_THREADS", "1")))
    except ValueError:
        return 1


def _write_csv(path: str, rows: list[tuple[float, str, float, str]]) -> None:
    lines = ["tau,method,value,kind"]
    lines += [f"{format_float(tau)},{method},{format_float(value)},{kind}" for tau, method, value, kind in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_b_file(path: str) -> list[np.ndarray]:
    vectors = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            vectors.append(np.array([float(x) for x in line.split()]))
    if not vectors:
        raise ValueError(f"no node vectors found in {path}")
    return vectors


def _model_config(args) -> ModelConfig:
    return ModelConfig(
        name=args.model,
        n=args.n,
        N=args.syk_n,
        seed=args.model_seed,
        t=args.hubbard_t,
        U=args.hubbard_u,
        mu=args.hubbard_mu,
        h=args.hubbard_h,
    )


def _add_model_flags(p: argparse.ArgumentParser, default: str = "anticommuting", extra=()) -> None:
    p.add_argument("--model", default=default, choices=list(MODEL_NAMES) + list(extra))
    p.add_argument("--n", type=int, default=6, help="heisenberg / free-fermion sites")
    p.add_argument("--syk-n", type=int, default=10, dest="syk_n", help="SYK majorana count")
    p.add_argument("--model-seed", type=int, default=7, help="SYK coupling seed")
    p.add_argument("--hubbard-t", type=float, default=2.0)
    p.add_argument("--hubbard-u", type=float, default=2.0)
    p.add_argument("--hubbard-mu", type=float, default=0.25)
    p.add_argument("--hubbard-h", type=float, default=0.5)


def _add_tau_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tau-min", type=float, default=1e-3)
    p.add_argument("--tau-max", type=float, default=10.0)
    p.add_argument("--tau-points", type=int, default=60)


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


def _specs_for(args, methods: list[Method]) -> dict[Method, MPFSpec]:
    """Build or load the formula specs the selected methods need.

    A spec file given as ``--matching-file`` or ``--cf-file`` must hold that
    kind and match ``--chi``/``--reps``.
    """
    chi, reps = args.chi, args.reps
    specs: dict[Method, MPFSpec] = {}
    if Method.CHILDS_WIEBE in methods:
        specs[Method.CHILDS_WIEBE] = cw_coefficients(chi, reps - 1)
    for method in (Method.MATCHING, Method.CLOSED_FORM):
        if method not in methods:
            continue
        kind = method.value
        path = getattr(args, f"{kind}_file", None)
        if not path:
            specs[method] = spec_from_b(kind, chi, reps, default_initial_b(chi, reps, kind))
            continue
        spec = load_mpf_spec(path)
        if spec.kind != kind:
            raise ValueError(f"--{kind}-file {path} holds a {spec.kind} spec, not {kind}")
        if spec.chi != chi or spec.R != reps:
            raise ValueError(f"{kind} spec file does not match --chi/--reps")
        specs[method] = spec
    return specs


_CONFIG_MAPPING = {
    ("experiment", "methods"): ("methods", str),
    ("experiment", "chi"): ("chi", int),
    ("experiment", "reps"): ("reps", int),
    ("experiment", "tau_min"): ("tau_min", float),
    ("experiment", "tau_max"): ("tau_max", float),
    ("experiment", "tau_points"): ("tau_points", int),
    ("experiment", "matching_file"): ("matching_file", str),
    ("experiment", "cf_file"): ("cf_file", str),
    ("model", "name"): ("model", str),
    ("model", "n"): ("n", int),
    ("model", "syk_n"): ("syk_n", int),
    ("model", "seed"): ("model_seed", int),
    ("output", "csv"): ("csv", str),
    ("output", "svg"): ("svg", str),
    ("optimize", "kind"): ("kind", str),
    ("optimize", "chi"): ("chi", int),
    ("optimize", "r"): ("R", int),
    ("optimize", "p"): ("p", float),
    ("optimize", "tau_ref"): ("tau_ref", float),
    ("optimize", "loss"): ("loss", str),
    ("optimize", "hops"): ("hops", int),
    ("optimize", "seed"): ("seed", int),
}


def _apply_config_overrides(args, argv: list[str]) -> None:
    """Config-file values fill in; explicitly given command-line flags win."""
    if not getattr(args, "config", None):
        return
    sections = read_experiment_config(args.config)
    given = {a.split("=", 1)[0] for a in argv if a.startswith("--")}
    for (section, key), (attr, cast) in _CONFIG_MAPPING.items():
        if section not in sections or key not in sections[section]:
            continue
        if not hasattr(args, attr):
            continue
        flag = "--" + attr.replace("_", "-").lower()
        if flag not in given:
            setattr(args, attr, cast(sections[section][key]))


def _print_spec(spec: MPFSpec) -> None:
    if spec.kind == "cw":
        print(f"kind = cw  chi = {spec.chi}  K = {spec.K}  ells = {list(spec.ells)}")
        print(f"C  = {np.array2string(spec.C, precision=12)}")
        print(f"Xi = {format_float(spec.resolution)}")
        return
    print(f"kind = {spec.kind}  chi = {spec.chi}  R = {spec.R}")
    blocks = (spec.block0, *spec.blocks) if spec.kind == "cf" else spec.blocks
    for i, blk in enumerate(blocks):
        print(f"block {i}: cond = {blk.cond:.3e}  |C|_1 = {format_float(blk.one_norm)}")
        print(f"  b  = {np.array2string(blk.b, precision=10)}")
        print(f"  nu = {np.array2string(blk.nu, precision=10)}")
        print(f"  C  = {np.array2string(blk.C, precision=10)}")
    print(f"Xi = {format_float(spec.resolution)}")


def cmd_coeffs(args) -> int:
    if args.kind == "cw":
        spec = cw_coefficients(args.chi, args.K)
    else:
        b_list = (
            _read_b_file(args.b_file)
            if args.b_file
            else default_initial_b(args.chi, args.R, args.kind)
        )
        spec = spec_from_b(args.kind, args.chi, args.R, b_list)
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
        merged, blocks = depth_report(method, args.chi, args.reps, args.depth_terms)
        print(f"{method.value}: depth_blocks = {blocks}, depth_merged = {merged} (L = {args.depth_terms})")
    if args.csv:
        _write_csv(args.csv, rows)
        print(f"wrote {args.csv}")
    if args.svg:
        from .svgplot import log_log_plot

        log_log_plot(series, args.svg, title="Error bounds", xlabel="tau", ylabel="bound")
        print(f"wrote {args.svg}")
    return 0


def _toy_two_term():
    return hamiltonian([pauli_string("X"), pauli_string("Y")], label="toy")


def cmd_distance(args) -> int:
    methods = _parse_methods(args.methods)
    taus = _tau_grid(args)
    H = _toy_two_term() if args.model == "toy" else build_model(_model_config(args))
    specs = _specs_for(args, methods)
    lam = lambda_norm(H)
    cache = SuzukiGridCache(H, args.chi, taus / lam)
    scales = [1.0 / args.reps]
    for spec in specs.values():
        scales += [b for branch in spec.branches for layer in branch for b in layer.b]
    cache.prewarm(scales, _threads())
    rows = []
    dist_series = {}
    violations = 0
    for method in methods:
        dists, bvals = distance_curve(
            H, method, taus, args.chi, args.reps, specs.get(method), cache
        )
        dist_series[method.value] = (list(taus), list(dists))
        for tau, dist, bound in zip(taus, dists, bvals):
            rows.append((float(tau), method.value, float(dist), "distance"))
            rows.append((float(tau), method.value, float(bound), "bound"))
            if dist > bound + DISTANCE_NOISE_FLOOR:
                violations += 1
        merged, blocks = depth_report(method, args.chi, args.reps, H.L)
        print(f"{method.value}: depth_blocks = {blocks}, depth_merged = {merged}")
    if args.csv:
        _write_csv(args.csv, rows)
        print(f"wrote {args.csv}")
    if args.svg:
        from .svgplot import log_log_plot

        log_log_plot(dist_series, args.svg, title=f"Operator distance ({args.model})", xlabel="tau", ylabel="distance")
        print(f"wrote {args.svg}")
    if violations:
        print(f"BOUND VIOLATIONS: {violations} grid points exceed bound + {DISTANCE_NOISE_FLOOR:g}")
        return 3
    print("all distances within bounds")
    return 0


def cmd_sample(args) -> int:
    H = _toy_two_term() if args.model == "toy" else build_model(_model_config(args))
    if args.mpf_file:
        spec = load_mpf_spec(args.mpf_file)
    elif args.kind == "cw":
        spec = cw_coefficients(args.chi, args.K)
    else:
        spec = spec_from_b(args.kind, args.chi, args.R, default_initial_b(args.chi, args.R, args.kind))
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
    estimate, state = run_estimator(mat, rho, O, plan.N, args.seed)
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
    H = _toy_two_term() if args.model == "toy" else build_model(_model_config(args))
    lam = lambda_norm(H)
    method = Method(args.method)
    if method == Method.TROTTER_SUZUKI:
        theory = 2 * args.chi + 1
        spec = None
    elif method == Method.CHILDS_WIEBE:
        theory = 2 * (args.chi + args.K) + 1
        spec = cw_coefficients(args.chi, args.K)
    else:
        theory = 2 * args.chi * args.R + 1
        kind = "matching" if method == Method.MATCHING else "cf"
        spec = spec_from_b(kind, args.chi, args.R, default_initial_b(args.chi, args.R, kind))

    from .operators import exact_evolutions

    def distances(ts):
        exact = exact_evolutions(H, ts)
        if spec is None:
            approx = ts_matrices(H, args.chi, 1, ts)
        else:
            approx = method_matrices(spec, H, ts)
        return [float(np.linalg.norm(exact[i] - approx[i], 2)) for i in range(len(ts))]

    try:
        fit = fit_order_slope(distances, t_min=args.t_min / lam, t_max=args.t_max / lam)
    except ValueError as exc:
        print(f"slope fit failed: {exc}")
        return 3
    ok = abs(fit.slope - theory) <= args.tol
    print(
        f"method = {method.value}  fitted slope = {fit.slope:.4f}  theory = {theory}  "
        f"window t in [{format_float(fit.t_window[0])}, {format_float(fit.t_window[1])}]  points = {fit.n_points}"
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
    p.add_argument("--b-file", default=None, help="node vectors, one block per line")
    p.add_argument("--out", default=None, help="write the spec file here")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("bounds", help="error-bound curves over tau")
    p.add_argument("--config", default=None)
    p.add_argument("--methods", default="ts,cw,matching,cf")
    p.add_argument("--chi", type=int, default=2)
    p.add_argument("--reps", type=int, default=3, help="r = R = K + 1 at depth parity")
    p.add_argument("--depth-terms", type=int, default=8, help="L used for merged depth reporting")
    p.add_argument("--matching-file", default=None)
    p.add_argument("--cf-file", default=None)
    _add_tau_flags(p)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_bounds, config_cmd=True)

    p = sub.add_parser("distance", help="operator distances vs exact evolution")
    p.add_argument("--config", default=None)
    p.add_argument("--methods", default="ts,cw,matching,cf")
    p.add_argument("--chi", type=int, default=2)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--matching-file", default=None)
    p.add_argument("--cf-file", default=None)
    _add_model_flags(p, extra=("toy",))
    _add_tau_flags(p)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_distance, config_cmd=True)

    p = sub.add_parser("sample", help="randomized estimation with planned shots")
    _add_model_flags(p, default="toy", extra=("toy",))
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
    p.add_argument("--config", default=None)
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
    p.set_defaults(func=cmd_optimize, config_cmd=True)

    p = sub.add_parser("slope", help="fit the order-scaling slope")
    p.add_argument("--method", required=True, choices=("ts", "cw", "matching", "cf"))
    p.add_argument("--chi", type=int, default=1)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--R", type=int, default=2)
    p.add_argument("--tol", type=float, default=0.5)
    p.add_argument("--t-min", type=float, default=1e-5, help="tau scan start")
    p.add_argument("--t-max", type=float, default=30.0, help="tau scan end")
    _add_model_flags(p, default="anticommuting", extra=("toy",))
    p.set_defaults(func=cmd_slope)
    return parser


def main(argv=None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config_cmd", False):
            _apply_config_overrides(args, argv)
        return args.func(args)
    except (ValueError, OSError, IllConditionedSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MatchingSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: the closed-form kind (--kind cf) always has coefficients", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
