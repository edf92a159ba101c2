"""Minimal native SVG log-log plotting (no plotting library dependency)."""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["log_log_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_WIDTH, _HEIGHT = 720, 520
_MARGIN = {"left": 80, "right": 170, "top": 40, "bottom": 60}


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1))


def log_log_plot(
    series: dict[str, tuple[list[float], list[float]]],
    path: str | Path,
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a log-log SVG with one polyline per named series.

    Nonpositive values cannot appear on log axes and are dropped per point.
    """
    cleaned: dict[str, tuple[list[float], list[float]]] = {}
    for name, (xs, ys) in series.items():
        pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0 and math.isfinite(y)]
        if pairs:
            cleaned[name] = ([p[0] for p in pairs], [p[1] for p in pairs])
    if not cleaned:
        raise ValueError("nothing to plot: all values nonpositive")

    all_x = [x for xs, _ in cleaned.values() for x in xs]
    all_y = [y for _, ys in cleaned.values() for y in ys]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo / 10, x_hi * 10
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 10, y_hi * 10

    plot_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    plot_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def px(x: float) -> float:
        frac = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        return _MARGIN["left"] + frac * plot_w

    def py(y: float) -> float:
        frac = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _MARGIN["top"] + (1.0 - frac) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN["left"]}" y="{_MARGIN["top"]}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black"/>',
    ]
    parts.append(f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{title}</text>')

    for d in _decades(x_lo, x_hi):
        x = 10.0**d
        if x_lo <= x <= x_hi:
            parts.append(
                f'<line x1="{px(x):.1f}" y1="{_MARGIN["top"]}" x2="{px(x):.1f}" '
                f'y2="{_MARGIN["top"] + plot_h}" stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{px(x):.1f}" y="{_MARGIN["top"] + plot_h + 18}" '
                f'text-anchor="middle">1e{d}</text>'
            )
    for d in _decades(y_lo, y_hi):
        y = 10.0**d
        if y_lo <= y <= y_hi:
            parts.append(
                f'<line x1="{_MARGIN["left"]}" y1="{py(y):.1f}" '
                f'x2="{_MARGIN["left"] + plot_w}" y2="{py(y):.1f}" stroke="#dddddd"/>'
            )
            parts.append(
                f'<text x="{_MARGIN["left"] - 8}" y="{py(y) + 4:.1f}" text-anchor="end">1e{d}</text>'
            )
    parts.append(
        f'<text x="{_MARGIN["left"] + plot_w / 2}" y="{_HEIGHT - 14}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MARGIN["top"] + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MARGIN["top"] + plot_h / 2})">{ylabel}</text>'
    )

    for i, (name, (xs, ys)) in enumerate(cleaned.items()):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _MARGIN["top"] + 16 + 18 * i
        lx = _MARGIN["left"] + plot_w + 12
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
