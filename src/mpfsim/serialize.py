"""Plain-text serialization of formula specs, optimizer results and configs.

The formats are flat ``key = value`` lines (vectors space-separated,
17 significant digits) so files diff cleanly and need no external config
language.  Loading a spec file re-solves the weight systems from the stored
node vectors and cross-checks the stored weights and resolution, so stale or
hand-edited files fail loudly.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from .mpf import MPFSpec, build_closedform, build_matching, cw_coefficients
from .optimize import OptimResult

__all__ = [
    "format_float",
    "format_vector",
    "save_mpf_spec",
    "load_mpf_spec",
    "save_optim_result",
    "read_experiment_config",
]

LOAD_RTOL = 1e-8


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_vector(v) -> str:
    return " ".join(format_float(float(x)) for x in v)


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _spec_lines(spec: MPFSpec) -> list[str]:
    if spec.kind == "cw":
        return [
            "kind = cw",
            f"chi = {spec.chi}",
            f"K = {spec.K}",
            f"ells = {' '.join(str(l) for l in spec.ells)}",
            f"C = {format_vector(spec.C)}",
            f"xi = {format_float(spec.resolution)}",
        ]
    lines = [
        f"kind = {spec.kind}",
        f"chi = {spec.chi}",
        f"R = {spec.R}",
        f"xi = {format_float(spec.resolution)}",
    ]
    # Node blocks are numbered from 1; the closed-form shift block is b0.
    first, blocks = (0, (spec.block0, *spec.blocks)) if spec.kind == "cf" else (1, spec.blocks)
    for idx, blk in enumerate(blocks, first):
        lines.append(f"b{idx} = {format_vector(blk.b)}")
        lines.append(f"c{idx} = {format_vector(blk.C)}")
        lines.append(f"nu{idx} = {format_vector(blk.nu)}")
    return lines


def save_mpf_spec(spec: MPFSpec, path: str | Path) -> None:
    Path(path).write_text("\n".join(_spec_lines(spec)) + "\n")


def load_mpf_spec(path: str | Path) -> MPFSpec:
    kv = _parse_kv(Path(path).read_text())
    kind = kv.get("kind")
    chi = int(kv["chi"])
    if kind == "cw":
        ells = tuple(int(x) for x in kv["ells"].split())
        spec = cw_coefficients(chi, int(kv["K"]), ells)
    elif kind in ("matching", "cf"):
        R = int(kv["R"])
        first = 1 if kind == "matching" else 0
        b_list = [
            np.array([float(x) for x in kv[f"b{i}"].split()]) for i in range(first, R + 1)
        ]
        spec = build_matching(chi, R, b_list) if kind == "matching" else build_closedform(chi, R, b_list)
    else:
        raise ValueError(f"unknown spec kind {kind!r}")
    stored_xi = float(kv["xi"])
    if abs(stored_xi - spec.resolution) > LOAD_RTOL * max(1.0, abs(stored_xi)):
        raise ValueError(
            f"stored resolution {stored_xi} disagrees with rebuilt {spec.resolution}; stale file?"
        )
    return spec


def save_optim_result(result: OptimResult, path: str | Path) -> None:
    cfg = result.config
    lines = [
        f"kind = {result.kind}",
        f"chi = {result.chi}",
        f"R = {result.R}",
        f"loss_kind = {cfg.loss_kind}",
        f"p = {format_float(cfg.p)}",
        f"tau_ref = {format_float(cfg.tau_ref)}",
        f"b_max = {format_float(cfg.b_max)}",
        f"hops = {cfg.hops}",
        f"seed = {cfg.seed}",
        f"xi = {format_float(result.Xi)}",
        f"zeta = {format_float(result.zeta)}",
        f"bound_at_tau_ref = {format_float(result.bound_at_tau_ref)}",
        f"loss_value = {format_float(result.loss_value)}",
        f"history = {format_vector(result.history)}",
    ]
    for i, b in enumerate(result.b_list):
        lines.append(f"b{i if result.kind == 'cf' else i + 1} = {format_vector(b)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_experiment_config(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a sectioned key = value experiment config.

    Sections: [experiment] (methods, chi, reps, tau grid), [model]
    (name plus model parameters) and [output] (csv/svg paths).  Values stay
    strings; the CLI owns their interpretation so flags and files share one
    code path.
    """
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ValueError(f"config file not found: {path}")
    return {section: dict(parser[section]) for section in parser.sections()}
