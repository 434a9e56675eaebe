"""Minimal deterministic SVG line charts.

Charts are assembled by hand so the same data always yields the same
bytes: fixed canvas, fixed palette, coordinates rounded to 0.01 px, no
timestamps or generated ids.  Enough to eyeball a burst, a fit, or a
simulated channel without pulling in a plotting stack.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence, Union

from .tracefile import write_text

WIDTH = 800
HEIGHT = 400
MARGIN_LEFT = 70
MARGIN_RIGHT = 20
MARGIN_TOP = 40
MARGIN_BOTTOM = 45
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def escape(text: str) -> str:
    """Text as SVG character data: `&`, `>` and `<` as entities, the same
    bytes as `xml.sax.saxutils.escape`, whose import costs more than the
    rest of the CLI's."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str = "",
    x_label: str = "t (ms)",
    y_label: str = "count",
) -> str:
    """An SVG document for labelled (x, y) polylines."""
    points = [p for _, pts in series for p in pts]
    if not points:
        raise ValueError("nothing to plot")
    x_lo = min(p[0] for p in points)
    x_hi = max(p[0] for p in points)
    y_lo = min(0.0, min(p[1] for p in points))
    y_hi = max(p[1] for p in points)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{escape(title)}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = _fmt(sx(tick))
        parts.append(
            f'<line x1="{x}" y1="{MARGIN_TOP}" x2="{x}" '
            f'y2="{MARGIN_TOP + plot_h}" stroke="#dddddd"/>')
        parts.append(
            f'<text x="{x}" y="{MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{_fmt(tick)}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = _fmt(sy(tick))
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{y}" '
            f'x2="{MARGIN_LEFT + plot_w}" y2="{y}" stroke="#dddddd"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" dy="4">'
            f'{_fmt(tick)}</text>')
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333"/>')
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 8}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'{escape(x_label)}</text>')
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h // 2})">'
        f'{escape(y_label)}</text>')

    for i, (label, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lx = MARGIN_LEFT + plot_w - 150
        ly = MARGIN_TOP + 16 + 16 * i
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" '
                     f'font-family="sans-serif" font-size="11">'
                     f'{escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    path: Union[str, Path],
    title: str = "",
    x_label: str = "t (ms)",
    y_label: str = "count",
) -> None:
    write_text(path, render_chart(series, title, x_label, y_label))
