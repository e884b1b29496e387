"""Deterministic SVG rendering of polygon scenes, for visual debugging.

Regions are drawn in lexicographic name order with a fixed palette and
even-odd fill, so repeated runs on the same scene produce byte-identical
output.
"""

from __future__ import annotations

from fractions import Fraction

from .plane import PlaneScene, Polygon

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _path_d(poly: Polygon, sx: float, sy: float, tx: float, ty: float) -> str:
    parts = []
    for ring in poly.rings():
        cmds = []
        for i, (x, y) in enumerate(ring.vertices):
            op = "M" if i == 0 else "L"
            cmds.append(f"{op} {_fmt(float(x) * sx + tx)} {_fmt(float(y) * sy + ty)}")
        cmds.append("Z")
        parts.append(" ".join(cmds))
    return " ".join(parts)


def to_svg(scene: PlaneScene, size: int = 640, labels: bool = True) -> str:
    """Render the scene as an SVG 1.1 document string."""
    points = [
        v
        for _, polys in scene.regions
        for poly in polys
        for ring in poly.rings()
        for v in ring.vertices
    ]
    if points:
        min_x = min(p[0] for p in points)
        max_x = max(p[0] for p in points)
        min_y = min(p[1] for p in points)
        max_y = max(p[1] for p in points)
    else:
        min_x = min_y = Fraction(0)
        max_x = max_y = Fraction(1)
    width = max(max_x - min_x, Fraction(1, 1000))
    height = max(max_y - min_y, Fraction(1, 1000))
    pad_x, pad_y = Fraction(width, 20), Fraction(height, 20)
    min_x, max_x = min_x - pad_x, max_x + pad_x
    min_y, max_y = min_y - pad_y, max_y + pad_y
    width, height = max_x - min_x, max_y - min_y

    scale = size / float(max(width, height))
    # flip the y axis so larger y renders upward
    sx, sy = scale, -scale
    tx = -float(min_x) * scale
    ty = float(max_y) * scale
    view_w = float(width) * scale
    view_h = float(height) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(view_w)} {_fmt(view_h)}">',
    ]
    for idx, (name, polys) in enumerate(scene.regions):
        colour = _PALETTE[idx % len(_PALETTE)]
        for poly in polys:
            d = _path_d(poly, sx, sy, tx, ty)
            lines.append(
                f'<path d="{d}" fill="{colour}" fill-opacity="0.45" '
                f'fill-rule="evenodd" stroke="{colour}" stroke-width="1"/>'
            )
        if labels and polys:
            x, y = polys[0].outer.vertices[0]
            lines.append(
                f'<text x="{_fmt(float(x) * sx + tx)}" '
                f'y="{_fmt(float(y) * sy + ty - 3)}" '
                f'font-size="12" fill="{colour}">{name}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
