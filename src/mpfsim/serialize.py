"""Plain-text serialization of formula specs, optimizer results and configs.

The formats are flat ``key = value`` lines (vectors space-separated,
17 significant digits) so files diff cleanly and need no external config
language.  Loading a spec file re-solves the weight systems from the stored
node vectors and cross-checks every stored value against the rebuilt spec,
so stale or hand-edited files fail loudly.  A matching or closed-form file
holds one ``b<i>``, ``c<i>``, ``nu<i>`` triple per node block, numbered as
:mod:`mpfsim.mpf` numbers them (``NODE_KINDS``).
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .mpf import NODE_KINDS, MPFSpec, cw_coefficients, spec_from_b

if TYPE_CHECKING:
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
    for idx, blk in enumerate(spec.blocks, spec.first_block):
        lines.append(f"b{idx} = {format_vector(blk.b)}")
        lines.append(f"c{idx} = {format_vector(blk.C)}")
        lines.append(f"nu{idx} = {format_vector(blk.nu)}")
    return lines


def save_mpf_spec(spec: MPFSpec, path: str | Path) -> None:
    Path(path).write_text("\n".join(_spec_lines(spec)) + "\n")


def _vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split()])


def load_mpf_spec(path: str | Path) -> MPFSpec:
    kv = _parse_kv(Path(path).read_text())
    kind = kv.get("kind")
    try:
        chi = int(kv["chi"])
        if kind == "cw":
            ells = tuple(int(x) for x in kv["ells"].split())
            spec = cw_coefficients(chi, int(kv["K"]), ells)
        elif kind in NODE_KINDS:
            R = int(kv["R"])
            b_list = []
            for i in range(NODE_KINDS[kind].first_block, R + 1):
                b_list.append(_vector(kv[f"b{i}"]))
                if not np.all(np.isfinite(b_list[-1])):
                    raise ValueError(f"{path}, key b{i}: node entries must be finite")
            spec = spec_from_b(kind, chi, R, b_list)
        else:
            raise ValueError(f"unknown spec kind {kind!r}")
        # Every value the writer writes must agree with the rebuilt spec's.
        for key, value in _parse_kv("\n".join(_spec_lines(spec))).items():
            if key == "kind":
                continue
            stored, rebuilt = _vector(kv[key]), _vector(value)
            tol = LOAD_RTOL * max(1.0, np.max(np.abs(rebuilt)))
            if stored.shape != rebuilt.shape or not np.max(np.abs(stored - rebuilt)) <= tol:
                raise ValueError(f"stored {key} disagrees with rebuilt {value}; stale or hand-edited file?")
    except KeyError as exc:
        raise ValueError(f"spec file {path} has no {exc.args[0]!r} key") from None
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
    for i, b in enumerate(result.b_list, NODE_KINDS[result.kind].first_block):
        lines.append(f"b{i} = {format_vector(b)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_experiment_config(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a sectioned key = value experiment config.

    Sections: [experiment] (methods, chi, reps, tau grid), [model], [output]
    (csv/svg paths) and [optimize].  Values stay strings, less inline ``;``
    comments; the CLI makes them flag defaults, so flags and files share one
    code path.  A missing or malformed file raises ``ValueError``.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        if not parser.read(str(path)):
            raise ValueError(f"config file not found: {path}")
        return {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:
        raise ValueError(f"config file {path}: {exc}") from None
