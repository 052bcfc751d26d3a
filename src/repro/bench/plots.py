"""ASCII figure rendering: the paper's figures, re-drawn in the terminal.

Figures 3 and 4 are log-x line charts of latency/bandwidth vs transfer
size per approach.  ``render_figure`` draws such a chart with one glyph
per series — good enough to eyeball the orderings and crossovers the
reproduction targets, with zero plotting dependencies.

``python -m repro.bench.report --plot`` uses this to accompany the
numeric tables.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

#: glyphs assigned to series in order.
GLYPHS = "123456789"


def render_figure(
    title: str,
    series: Dict[str, List[Tuple[float, float]]],
    width: int = 64,
    height: int = 16,
    y_label: str = "",
    log_x: bool = True,
) -> str:
    """Render one multi-series scatter/line chart as text.

    ``series`` maps a name to ``(x, y)`` points.  X is log-scaled by
    default (transfer-size sweeps); Y is linear from zero.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n  (no data)\n"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(ys) * 1.05 or 1.0

    def x_col(x: float) -> int:
        if x_hi == x_lo:
            return 0
        if log_x:
            span = math.log(x_hi) - math.log(x_lo)
            frac = (math.log(x) - math.log(x_lo)) / span
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return min(width - 1, int(round(frac * (width - 1))))

    def y_row(y: float) -> int:
        frac = y / y_hi
        return min(height - 1, int(round(frac * (height - 1))))

    grid = [[" "] * width for _ in range(height)]
    legend = []
    for i, (name, pts) in enumerate(series.items()):
        glyph = GLYPHS[i % len(GLYPHS)]
        legend.append(f"{glyph}={name}")
        for x, y in pts:
            row, col = y_row(y), x_col(x)
            cell = grid[row][col]
            grid[row][col] = "*" if cell not in (" ", glyph) else glyph

    lines = [f"{title}   [{', '.join(legend)}]"]
    label_w = 9
    for r in range(height - 1, -1, -1):
        y_value = y_hi * r / (height - 1)
        label = f"{y_value:8.1f} " if r % 4 == 0 or r == height - 1 else " " * label_w
        lines.append(label + "|" + "".join(grid[r]))
    lines.append(" " * label_w + "+" + "-" * width)
    ticks = sorted({x for x in xs})
    tick_line = [" "] * width
    for x in ticks:
        text = _fmt_size(x)
        col = min(width - len(text), x_col(x))
        for j, ch in enumerate(text):
            tick_line[col + j] = ch
    lines.append(" " * (label_w + 1) + "".join(tick_line))
    if y_label:
        lines.append(f"  y: {y_label}" + ("   x: log size" if log_x else ""))
    return "\n".join(lines) + "\n"


def _fmt_size(x: float) -> str:
    if x >= 1 << 20:
        return f"{x / (1 << 20):g}M"
    if x >= 1024:
        return f"{x / 1024:g}K"
    return f"{x:g}"


def figure3(rows) -> str:
    """Render Figure 3 (latency) from block-transfer point rows
    (:func:`repro.bench.harness.block_transfer_point`)."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for r in rows:
        series.setdefault(f"A{r['approach']}", []).append(
            (r["size_bytes"], r["notify_latency_ns"] / 1000.0))
    return render_figure("Figure 3: block-transfer latency (us)",
                         series, y_label="latency (us)")


def figure4(rows) -> str:
    """Render Figure 4 (bandwidth) from block-transfer point rows."""
    series: Dict[str, List[Tuple[float, float]]] = {}
    for r in rows:
        series.setdefault(f"A{r['approach']}", []).append(
            (r["size_bytes"], r["bandwidth_mb_s"]))
    return render_figure("Figure 4: block-transfer bandwidth (MB/s)",
                         series, y_label="MB/s")
