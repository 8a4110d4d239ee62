"""Minimal deterministic SVG line charts.

Series draw solid against the left y axis; a curve flagged ``secondary``
draws dotted against the right y axis, the one style choice.  Output is a
pure function of the input series: identical input gives byte-identical SVG,
which the reproducibility contract relies on (no timestamps, no generated
ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

__all__ = ["Curve", "emit_svg_plot"]

_PALETTE = ("#1a5fb4", "#c01c28", "#2ec27e", "#e66100", "#613583", "#865e3c")

_WIDTH = 760
_HEIGHT = 440
_MARGIN_L = 64
_MARGIN_R = 64
_MARGIN_T = 56
_MARGIN_B = 48


@dataclass(frozen=True)
class Curve:
    """One plotted series; a ``secondary`` one is dotted, on the right axis."""

    label: str
    values: Sequence[float]
    secondary: bool = False


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return format(v, ".6g")


def _axis_range(curves: list[Curve]) -> tuple[float, float]:
    lo = min(float(np.min(c.values)) for c in curves)
    hi = max(float(np.max(c.values)) for c in curves)
    lo = min(lo, 0.0)
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def emit_svg_plot(
    times: Sequence[float],
    curves: Sequence[Curve],
    title: str = "",
) -> str:
    """Render curves sharing one time grid as an SVG 1.1 document.  The
    points of each curve are computed as numpy arrays, by the expressions
    that place the ticks: ``+ - * /`` round in numpy as in Python, so the
    bytes do not depend on whether a series is a list or an array."""
    curves = list(curves)
    if not curves:
        raise ConfigError("nothing to plot: empty series set")
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise ConfigError("a plot needs at least two grid points")
    for c in curves:
        if len(c.values) != len(times):
            raise ConfigError(f"curve {c.label!r} has {len(c.values)} points, grid has {len(times)}")

    left = [c for c in curves if not c.secondary]
    right = [c for c in curves if c.secondary]
    x0, x1 = float(times[0]), float(times[-1])
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def x_px(t):
        return _MARGIN_L + (t - x0) / (x1 - x0) * plot_w

    scales = {}
    if left:
        scales["left"] = _axis_range(left)
    if right:
        scales["right"] = _axis_range(right)

    def y_px(v, axis: str):
        lo, hi = scales[axis]
        return _MARGIN_T + (hi - v) / (hi - lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{_escape(title)}</text>'
        )

    axis_bottom = _HEIGHT - _MARGIN_B
    axis_right = _WIDTH - _MARGIN_R
    frame = f'stroke="#333333" stroke-width="1" fill="none"'
    out.append(f'<line x1="{_MARGIN_L}" y1="{axis_bottom}" x2="{axis_right}" y2="{axis_bottom}" {frame}/>')
    out.append(f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_bottom}" {frame}/>')
    if right:
        out.append(f'<line x1="{axis_right}" y1="{_MARGIN_T}" x2="{axis_right}" y2="{axis_bottom}" {frame}/>')

    # x ticks
    for i in range(5):
        t = x0 + (x1 - x0) * i / 4.0
        px = x_px(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{axis_bottom}" x2="{_fmt(px)}" y2="{axis_bottom + 4}" {frame}/>')
        out.append(
            f'<text x="{_fmt(px)}" y="{axis_bottom + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(t)}</text>'
        )
    out.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">time (days)</text>'
    )

    # y ticks per axis
    for axis, xpix, anchor, dx in (("left", _MARGIN_L, "end", -7), ("right", axis_right, "start", 7)):
        if axis not in scales:
            continue
        lo, hi = scales[axis]
        for i in range(5):
            v = lo + (hi - lo) * i / 4.0
            py = y_px(v, axis)
            tick_x2 = xpix - 4 if axis == "left" else xpix + 4
            out.append(f'<line x1="{xpix}" y1="{_fmt(py)}" x2="{tick_x2}" y2="{_fmt(py)}" {frame}/>')
            out.append(
                f'<text x="{xpix + dx}" y="{_fmt(py + 4)}" text-anchor="{anchor}" '
                f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>'
            )

    # curves
    xs = [_fmt(px) for px in x_px(times).tolist()]
    legend_entries = []
    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        axis = "right" if c.secondary else "left"
        ys = y_px(np.asarray(c.values, dtype=float), axis).tolist()
        pts = " ".join([f"{x},{y:.2f}" for x, y in zip(xs, ys)])
        dash = ' stroke-dasharray="2 4"' if c.secondary else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>')
        legend_entries.append((f"{c.label} ({axis})", color, dash))

    # legend row under the title
    lx = float(_MARGIN_L)
    ly = _MARGIN_T - 14
    for shown, color, dash in legend_entries:
        out.append(f'<line x1="{_fmt(lx)}" y1="{ly - 4}" x2="{_fmt(lx + 18)}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"{dash}/>')
        out.append(
            f'<text x="{_fmt(lx + 22)}" y="{ly}" font-family="sans-serif" font-size="11">{_escape(shown)}</text>'
        )
        lx += 30 + 6.4 * len(shown)

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
