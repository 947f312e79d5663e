"""Minimal standalone SVG emission for batch plots (no plotting dependency).

Fixed 800x600 canvas, linear or log-y line charts with a legend, and colored
cell grids for decision-region maps.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 30, 50, 60

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]

REGION_COLORS = {
    "always_a": "#1f77b4",
    "always_b": "#d62728",
    "mixed": "#2ca02c",
    "other": "#bbbbbb",
    "tie": "#ffdd57",
}


def _esc(text: str) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (n - 1)
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo, hi]


def line_chart(
    series: list[dict],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_y: bool = False,
    hlines: list[tuple[str, float]] | None = None,
) -> str:
    """Polyline chart; series entries are {"label", "x", "y"}. Non-finite y
    values, and in log mode nonpositive ones, are dropped from their series;
    with nothing left to plot the axes span [0, 1] (1 to 10 in log mode)."""

    def plotted(y) -> bool:
        return math.isfinite(y) and (not log_y or y > 0)

    pts = []
    for s in series:
        for x, y in zip(s["x"], s["y"]):
            if plotted(y):
                pts.append((float(x), float(y)))
    for _, y in hlines or []:
        if plotted(y):
            pts.append((pts[0][0] if pts else 0.0, float(y)))
    if not pts:
        pts = [(0.0, 1.0), (1.0, 10.0)] if log_y else [(0.0, 0.0), (1.0, 1.0)]
    xs = [p[0] for p in pts]
    ys = [math.log10(p[1]) for p in pts] if log_y else [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(y):
        return HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2}" y="28" text-anchor="middle" font-size="17">{_esc(title)}</text>',
    ]
    # axes and ticks
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{HEIGHT-MARGIN_B}" x2="{WIDTH-MARGIN_R}" '
        f'y2="{HEIGHT-MARGIN_B}" stroke="black"/>'
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{HEIGHT-MARGIN_B}" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.1f}" y1="{HEIGHT-MARGIN_B}" x2="{px(t):.1f}" '
            f'y2="{HEIGHT-MARGIN_B+5}" stroke="black"/>'
            f'<text x="{px(t):.1f}" y="{HEIGHT-MARGIN_B+20}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        label = f"1e{t:g}" if log_y else f"{t:g}"
        parts.append(
            f'<line x1="{MARGIN_L-5}" y1="{py(t):.1f}" x2="{MARGIN_L}" y2="{py(t):.1f}" stroke="black"/>'
            f'<text x="{MARGIN_L-9}" y="{py(t)+4:.1f}" text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L+WIDTH-MARGIN_R)/2}" y="{HEIGHT-15}" text-anchor="middle">{_esc(xlabel)}</text>'
        f'<text x="20" y="{(MARGIN_T+HEIGHT-MARGIN_B)/2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(MARGIN_T+HEIGHT-MARGIN_B)/2})">{_esc(ylabel)}</text>'
    )

    for _, yv in hlines or []:
        if not plotted(yv):
            continue
        yy = py(math.log10(yv) if log_y else yv)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{yy:.1f}" x2="{WIDTH-MARGIN_R}" y2="{yy:.1f}" '
            f'stroke="#555555" stroke-dasharray="6 4"/>'
        )

    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        coords = [
            (px(float(x)), py(math.log10(float(y)) if log_y else float(y)))
            for x, y in zip(s["x"], s["y"])
            if plotted(y)
        ]
        if not coords:
            continue
        path = " ".join(f"{cx:.1f},{cy:.1f}" for cx, cy in coords)
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>')
        for cx, cy in coords:
            parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3" fill="{color}"/>')

    # legend
    ly = MARGIN_T + 8
    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        parts.append(
            f'<rect x="{WIDTH-MARGIN_R-180}" y="{ly}" width="14" height="14" fill="{color}"/>'
            f'<text x="{WIDTH-MARGIN_R-160}" y="{ly+12}">{_esc(s["label"])}</text>'
        )
        ly += 20
    for label, _ in hlines or []:
        parts.append(
            f'<line x1="{WIDTH-MARGIN_R-180}" y1="{ly+7}" x2="{WIDTH-MARGIN_R-166}" y2="{ly+7}" '
            f'stroke="#555555" stroke-dasharray="6 4" stroke-width="2"/>'
            f'<text x="{WIDTH-MARGIN_R-160}" y="{ly+12}">{_esc(label)}</text>'
        )
        ly += 20

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def region_chart(q_values: np.ndarray, labels: np.ndarray, axis_users: tuple[int, int], title: str = "") -> str:
    """Colored cells over the grid, x = first axis user's queue; each
    column's runs of one label are drawn as one rect."""
    n = len(q_values)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    cell_w = plot_w / n
    cell_h = plot_h / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2}" y="28" text-anchor="middle" font-size="17">{_esc(title)}</text>',
    ]
    for ia in range(n):
        x = MARGIN_L + ia * cell_w
        ib = 0
        for label, run in itertools.groupby(labels[ia]):
            color = REGION_COLORS.get(label, "#000000")
            count = len(list(run))
            ib += count
            y = HEIGHT - MARGIN_B - ib * cell_h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell_w:.2f}" height="{count * cell_h:.2f}" fill="{color}"/>'
            )
    step = max(1, n // 8)
    for j in range(0, n, step):
        x = MARGIN_L + (j + 0.5) * cell_w
        y = HEIGHT - MARGIN_B - (j + 0.5) * cell_h
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT-MARGIN_B+20}" text-anchor="middle">{q_values[j]:g}</text>'
            f'<text x="{MARGIN_L-9}" y="{y+4:.1f}" text-anchor="end">{q_values[j]:g}</text>'
        )
    a, b = axis_users
    parts.append(
        f'<text x="{(MARGIN_L+WIDTH-MARGIN_R)/2}" y="{HEIGHT-15}" text-anchor="middle">queue of user {a}</text>'
        f'<text x="20" y="{(MARGIN_T+HEIGHT-MARGIN_B)/2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(MARGIN_T+HEIGHT-MARGIN_B)/2})">queue of user {b}</text>'
    )
    ly = MARGIN_T + 8
    legend = {
        "always_a": f"user {a} in every state",
        "always_b": f"user {b} in every state",
        "mixed": "state-dependent",
        "other": "off-axis user",
        "tie": "tied",
    }
    for key, text in legend.items():
        parts.append(
            f'<rect x="{WIDTH-MARGIN_R-190}" y="{ly}" width="14" height="14" fill="{REGION_COLORS[key]}" '
            f'stroke="#333333"/>'
            f'<text x="{WIDTH-MARGIN_R-170}" y="{ly+12}">{_esc(text)}</text>'
        )
        ly += 20
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
