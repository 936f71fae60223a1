"""Static SVG picture of the normalized flag configuration.

Points are drawn in the affine chart X+Y+Z = 1, i.e. [X:Y:Z] is placed at
(X/(X+Y+Z), Y/(X+Y+Z)).  On the valid domain every drawn point has a
positive coordinate sum (the dictionary forces b1, c2, a2, b3 > 1 and
a3, c1, x > 0), so the chart never clips; a guard raises ChartFailure if a
coordinate sum is numerically zero anyway.
"""

from __future__ import annotations

import math

from .errors import ChartFailure
from .flags import PantsFlagConfig

CHART_TOL = 1e-9

# Width of the drawing in pixels; the height follows from the chart's aspect.
SVG_WIDTH = 640

_FILLS = ("#d7e5f4", "#fbe3c9", "#d9efd7", "#f3d9e8")
_EDGE = "#444444"
_LINE_COLOR = "#8a1f1f"


def chart_point(v) -> tuple[float, float]:
    """Affine coordinates of [X:Y:Z] in the chart X+Y+Z = 1."""
    x, y, z = map(float, v)
    total = x + y + z
    if abs(total) < CHART_TOL:
        raise ChartFailure(f"point {[x, y, z]!r} has coordinate sum {total!r}")
    return (x / total, y / total)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _label(v) -> str:
    return "[" + ", ".join(map(_fmt, v)) + "]"


def render_config_svg(config: PantsFlagConfig) -> str:
    """SVG document showing the four triangles and the three flag lines."""
    vertices = dict(zip(
        ("p1", "p2", "p3", "q1", "q2", "q3"),
        (*(f.point for f in config.inner_flags), *config.outer_points),
    ))
    meets = dict(zip(("m13", "m12", "m23"), config.meets))
    charted = {name: chart_point(vec) for name, vec in {**vertices, **meets}.items()}

    triangles = [
        ("p1", "p2", "p3"),          # upper triangle
        ("p2", "p3", "q1"),          # lower triangle across B_1
        ("p3", "p1", "q2"),          # across B_2
        ("p1", "p2", "q3"),          # across B_3
    ]
    # each flag line through inner vertex i also passes through two meets
    flag_lines = [("p1", "m13", "m12"), ("p2", "m12", "m23"), ("p3", "m13", "m23")]

    xs = [pt[0] for pt in charted.values()]
    ys = [pt[1] for pt in charted.values()]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-6)
    margin = 0.18 * span
    lo_x, hi_x = min(xs) - margin, max(xs) + margin
    lo_y, hi_y = min(ys) - margin, max(ys) + margin
    scale = SVG_WIDTH / (hi_x - lo_x)
    height = int(round((hi_y - lo_y) * scale))

    def to_px(pt):
        # svg y grows downwards
        return ((pt[0] - lo_x) * scale, (hi_y - pt[1]) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{height}" '
        f'viewBox="0 0 {SVG_WIDTH} {height}" style="background:#ffffff">',
    ]
    for fill, names in zip(_FILLS, triangles):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (to_px(charted[n]) for n in names))
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.85" '
            f'stroke="{_EDGE}" stroke-width="1"/>'
        )
    for names in flag_lines:
        (x0, y0), (x1, y1), (x2, y2) = (charted[n] for n in names)
        cx, cy = (x0 + x1 + x2) / 3, (y0 + y1 + y2) / 3
        dx, dy = x2 - x0, y2 - y0
        norm = math.hypot(dx, dy)
        dx, dy = dx / norm, dy / norm
        reach = 0.75 * span
        a = to_px((cx - reach * dx, cy - reach * dy))
        b = to_px((cx + reach * dx, cy + reach * dy))
        parts.append(
            f'<line x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
            f'stroke="{_LINE_COLOR}" stroke-width="1.2" stroke-dasharray="6 3"/>'
        )
    for name, vec in vertices.items():
        x, y = to_px(charted[name])
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="#111111"/>')
        parts.append(
            f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-family="monospace" '
            f'font-size="12" fill="#111111">{_label(vec)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
