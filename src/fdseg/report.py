"""Deterministic hand-emitted SVG line charts for sweep results."""
from __future__ import annotations

import html

from .sweeps import SweepResult

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 140, 30, 50

PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2"]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def sweep_chart_svg(result: SweepResult, title: str,
                    x_label: str = "condition",
                    y_label: str = "mean test Dice") -> str:
    """One polyline per loss mode: x = condition, y = mean Dice with +-std
    whiskers. Byte-deterministic for identical input rows. The title and the
    mode names, which may come from a file name and a CSV, are XML-escaped."""
    agg = result.aggregate()
    if not agg:
        raise ValueError("empty sweep: nothing to plot")
    conditions = sorted({c for c, _ in agg})
    modes = sorted({m for _, m in agg})
    y_lo = min(m - s for m, s in agg.values())
    y_hi = max(m + s for m, s in agg.values())
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = min(conditions), max(conditions)
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{html.escape(title)}</text>',
        # axes
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" '
        f'x2="{WIDTH - MARGIN_R}" y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<text x="{MARGIN_L + pw // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{MARGIN_T + ph // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {MARGIN_T + ph // 2})">{y_label}</text>',
    ]
    # axis ticks
    for i in range(5):
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(f'<text x="{MARGIN_L - 6}" y="{_fmt(sy(yv))}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="10">{_fmt(yv)}</text>')
    for c in conditions:
        parts.append(f'<text x="{_fmt(sx(c))}" y="{HEIGHT - MARGIN_B + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{_fmt(c)}</text>')

    for mi, mode in enumerate(modes):
        color = PALETTE[mi % len(PALETTE)]
        pts = [(c,) + agg[(c, mode)] for c in conditions if (c, mode) in agg]
        path = " ".join(f"{_fmt(sx(c))},{_fmt(sy(m))}" for c, m, _ in pts)
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for c, m, s in pts:
            parts.append(f'<circle cx="{_fmt(sx(c))}" cy="{_fmt(sy(m))}" '
                         f'r="3" fill="{color}"/>')
            if s > 0:
                parts.append(f'<line x1="{_fmt(sx(c))}" y1="{_fmt(sy(m - s))}" '
                             f'x2="{_fmt(sx(c))}" y2="{_fmt(sy(m + s))}" '
                             f'stroke="{color}" stroke-width="1"/>')
        ly = MARGIN_T + 14 + 16 * mi
        lx = WIDTH - MARGIN_R + 10
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{html.escape(mode)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_sweep_chart(result: SweepResult, path: str, title: str,
                      x_label: str = "condition") -> None:
    svg = sweep_chart_svg(result, title, x_label=x_label)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
