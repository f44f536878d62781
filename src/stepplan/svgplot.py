"""Minimal SVG line charts for convergence curves, no plotting dependency.

Emits SVG 1.1 by hand with fixed-precision coordinates so identical inputs
produce byte-identical files.  The y axis is log-scaled (errors span many
decades); non-positive values are clamped to ``Y_FLOOR`` so
exactly-converged runs still plot.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from typing import Iterable, Sequence, Tuple

import numpy as np

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

WIDTH, HEIGHT = 760, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 170, 20, 45
Y_FLOOR = 1e-16

# legend text as XML 1.0: escape the markup characters, and replace by U+FFFD each
# character its Char production excludes, which no escape can carry
_LEGEND_TEXT = {ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", **dict.fromkeys(
    chain(range(9), (11, 12), range(14, 32), range(0xD800, 0xE000), (0xFFFE, 0xFFFF)), "\ufffd")}


def _f(x: float) -> str:
    return f"{x:.2f}"


def _nice_linear_ticks(lo: float, hi: float) -> list:
    raw = (hi - lo) / 6
    if raw < sys.float_info.min:  # a subnormal span has no 1-2-5 step: one tick
        return [lo]
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            step = mult * mag
            break
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(t)
        if t + step == t:  # a step below half an ulp of t never moves it
            break
        t += step
    return ticks


def render_svg(series: Sequence[Tuple[str, Iterable[float], Iterable[float]]], path) -> None:
    """Write a line chart of (label, xs, ys) series to ``path``.

    The y coordinates are log10-scaled and decade ticks are drawn; values
    below ``Y_FLOOR`` are clamped before scaling.  Points whose y is inf or
    NaN (a diverged run's last error) are left out; a non-finite x, or x
    values spanning more than the float range, is a ``ValueError``.
    """
    prepared = []
    for label, xs, ys in series:
        xs, ys = np.fromiter(xs, float), np.fromiter(ys, float)
        if xs.size != ys.size:
            raise ValueError(f"series {label!r} has mismatched lengths")
        if not np.isfinite(xs).all():
            raise ValueError(f"series {label!r} has a non-finite x value")
        # math.log10, not np.log10, whose SIMD kernel may differ by one ulp
        ys = np.fromiter(map(math.log10, np.maximum(ys, Y_FLOOR).tolist()), float, ys.size)
        kept = np.isfinite(ys)
        if not kept.all():
            xs, ys = xs[kept], ys[kept]
        prepared.append((label, xs, ys))
    if any(xs.size for _, xs, _ in prepared):
        all_x = np.concatenate([xs for _, xs, _ in prepared])
        all_y = np.concatenate([ys for _, _, ys in prepared])
        x_lo, x_hi = float(all_x.min()), float(all_x.max())
        y_lo, y_hi = float(all_y.min()), float(all_y.max())
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:  # one x value: a unit-wide axis, or one ulp wide where an ulp is more
        x_hi = x_lo + max(1.0, math.ulp(x_lo))
    if x_hi - x_lo == math.inf:  # also one x value at the top of the float range
        names = ", ".join(repr(label) for label, xs, _ in prepared if x_lo in xs or x_hi in xs)
        raise ValueError(f"the x values of series {names} span more than the float range")
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    x_span = x_hi - x_lo
    y_span = y_hi - y_lo

    def px(x):  # a float or an array of floats
        return MARGIN_L + (x - x_lo) / x_span * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / y_span * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    axis = (
        f'M {_f(MARGIN_L)} {_f(MARGIN_T)} L {_f(MARGIN_L)} {_f(MARGIN_T + plot_h)} '
        f'L {_f(MARGIN_L + plot_w)} {_f(MARGIN_T + plot_h)}'
    )
    out.append(f'<path d="{axis}" stroke="black" fill="none" stroke-width="1"/>')

    for t in range(math.ceil(y_lo - 1e-9), math.floor(y_hi + 1e-9) + 1):
        y = py(float(t))
        out.append(
            f'<line x1="{_f(MARGIN_L - 4)}" y1="{_f(y)}" x2="{_f(MARGIN_L)}" y2="{_f(y)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_f(MARGIN_L - 8)}" y="{_f(y + 3)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">1e{t:d}</text>'
        )
    shown = None
    for t in _nice_linear_ticks(x_lo, x_hi):
        text = f"{t:g}"
        if text == shown:  # ticks closer together than six significant digits
            continue
        shown = text
        x = px(t)
        bottom = MARGIN_T + plot_h
        out.append(
            f'<line x1="{_f(x)}" y1="{_f(bottom)}" x2="{_f(x)}" y2="{_f(bottom + 4)}" stroke="black"/>'
        )
        out.append(
            f'<text x="{_f(x)}" y="{_f(bottom + 16)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{text}</text>'
        )
    out.append(
        f'<text x="{_f(MARGIN_L + plot_w / 2)}" y="{_f(HEIGHT - 8)}" font-size="12" '
        'font-family="sans-serif" text-anchor="middle">gradient evaluations</text>'
    )
    out.append(
        f'<text x="14" y="{_f(MARGIN_T + plot_h / 2)}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle" transform="rotate(-90 14 {_f(MARGIN_T + plot_h / 2)})">error</text>'
    )

    for idx, (label, xs, ys) in enumerate(prepared):
        color = PALETTE[idx % len(PALETTE)]
        if xs.size:
            points = np.column_stack((px(xs), py(ys))).ravel().tolist()
            coords = " ".join(["%.2f,%.2f"] * xs.size) % tuple(points)
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        # escaped by hand: xml.sax.saxutils would import urllib and cost about 6 MB of RSS
        text = str(label).translate(_LEGEND_TEXT)
        ly = MARGIN_T + 14 + 16 * idx
        lx = MARGIN_L + plot_w + 12
        out.append(
            f'<line x1="{_f(lx)}" y1="{_f(ly - 4)}" x2="{_f(lx + 18)}" y2="{_f(ly - 4)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_f(lx + 24)}" y="{_f(ly)}" font-size="11" font-family="sans-serif">{text}</text>'
        )
    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")


def render_traces(labeled_traces, path) -> None:
    """Plot (label, Trace) pairs as error versus gradient evaluations."""
    render_svg([(label, trace.grad_evals, trace.error) for label, trace in labeled_traces], path)
