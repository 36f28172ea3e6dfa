"""SVG picture of a face decomposition. The only module that touches floats."""

from __future__ import annotations

import math

from .arrangement import FaceComplex

SCALE = 360.0  # pixels per unit of the upper half-plane


def svg_figure(fc: FaceComplex, precision: int = 12) -> str:
    pad = 0.1
    ch = math.sqrt(3) / 2  # corner height
    y_top = fc.ycap + pad
    x_min = -0.5 - pad

    def fmt(v: float) -> str:
        return format(v, f".{precision}g")

    def px(x: float) -> str:
        return fmt((x - x_min) * SCALE)

    def py(y: float) -> str:
        return fmt((y_top - y) * SCALE)

    width = px(0.5 + pad)
    height = py(ch - pad)

    paths = []

    def path(d: str, color: str = "black") -> None:
        paths.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')

    # domain boundary: two walls, the cap, the unit-circle bottom
    path(f"M {px(-0.5)} {py(ch)} L {px(-0.5)} {py(fc.ycap)}")
    path(f"M {px(0.5)} {py(ch)} L {px(0.5)} {py(fc.ycap)}")
    path(f"M {px(-0.5)} {py(fc.ycap)} L {px(0.5)} {py(fc.ycap)}")
    r = fmt(SCALE)
    path(f"M {px(-0.5)} {py(ch)} A {r} {r} 0 0 1 {px(0.5)} {py(ch)}")

    # one path per clipped geodesic
    for arc in fc.arcs:
        rr = fmt(math.sqrt(fc.disc) / (2 * arc.a) * SCALE)
        x1, x2 = float(arc.lo), float(arc.hi)
        y1 = math.sqrt(float(arc.height_sq(arc.lo)))
        y2 = math.sqrt(float(arc.height_sq(arc.hi)))
        path(f"M {px(x1)} {py(y1)} A {rr} {rr} 0 0 1 {px(x2)} {py(y2)}", "crimson")
    for v in fc.vlines:
        x = float(v)
        foot = math.sqrt(1 - x * x)
        path(f"M {px(x)} {py(foot)} L {px(x)} {py(fc.ycap)}", "crimson")

    labels = []
    for fid, p in enumerate(fc.samples):
        lx = px(float(p.x))
        ly = py(math.sqrt(float(p.s)))
        labels.append(f'<text x="{lx}" y="{ly}" font-size="14" text-anchor="middle">{fid}</text>')

    body = "\n".join(paths + labels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n{body}\n</svg>\n'
    )
