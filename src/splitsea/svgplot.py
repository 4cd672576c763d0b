"""Minimal hand-rolled SVG polyline plots (no plotting dependency)."""

from __future__ import annotations

import math

_COLORS = ("#1f6fb2", "#c23b22", "#2e8b57", "#8a2be2", "#d4820a", "#444444")


def _fmt(v):
    return f"{v:.2f}"


class Panel:
    """One axes box with any number of polyline series."""

    def __init__(self, title=""):
        self.title = title
        self.series = []  # (xs, ys, label)

    def add(self, xs, ys, label=""):
        self.series.append((list(xs), list(ys), label))
        return self


def render_panels(panels, path):
    """Stack panels vertically into one SVG file."""
    width, panel_height, margin = 640, 200, 46  # pixels
    height = panel_height * len(panels)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="11">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for p_idx, panel in enumerate(panels):
        top = p_idx * panel_height
        x0, x1 = margin, width - 12
        y0, y1 = top + panel_height - 28, top + 22
        xs_all = [x for s in panel.series for x in s[0]]
        ys_all = [y for s in panel.series for y in s[1]
                  if not (math.isnan(y) or math.isinf(y))]
        if not xs_all:
            continue
        lo_x, hi_x = min(xs_all), max(xs_all)
        lo_y, hi_y = min(ys_all), max(ys_all)
        if hi_x == lo_x:
            hi_x = lo_x + 1.0
        if hi_y == lo_y:
            hi_y = lo_y + 1.0
        pad = 0.05 * (hi_y - lo_y)
        lo_y, hi_y = lo_y - pad, hi_y + pad

        def sx(v):
            return x0 + (v - lo_x) / (hi_x - lo_x) * (x1 - x0)

        def sy(v):
            return y0 - (v - lo_y) / (hi_y - lo_y) * (y0 - y1)

        parts.append(f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" '
                     f'height="{y0 - y1}" fill="none" stroke="#999"/>')
        parts.append(f'<text x="{x0}" y="{top + 14}">{panel.title}</text>')
        parts.append(f'<text x="{x0 - 40}" y="{y0 + 4}">{_fmt(lo_y)}</text>')
        parts.append(f'<text x="{x0 - 40}" y="{y1 + 4}">{_fmt(hi_y)}</text>')
        parts.append(f'<text x="{x0}" y="{y0 + 16}">{_fmt(lo_x)}</text>')
        parts.append(f'<text x="{x1 - 30}" y="{y0 + 16}">{_fmt(hi_x)}</text>')
        for s_idx, (xs, ys, label) in enumerate(panel.series):
            color = _COLORS[s_idx % len(_COLORS)]
            pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                           for x, y in zip(xs, ys)
                           if not (math.isnan(y) or math.isinf(y)))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.2"/>')
            if label:
                parts.append(f'<text x="{x1 - 150}" y="{y1 + 14 + 13 * s_idx}" '
                             f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
    return path
