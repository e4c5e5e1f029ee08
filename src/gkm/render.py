"""Deterministic SVG drawings of planar moment graphs.

The picture shows the shaded convex hull of the moment positions, every
edge as a segment (with an arrowhead at its midpoint when an orientation
is supplied), labeled vertices with their down-degrees, and the covector
in the margin.  Output is a pure function of the input, so files are
byte-identical across runs.

This is the one module allowed to use floating point: coordinates only
exist here to be printed into the SVG.
"""

from __future__ import annotations

from typing import Optional

from .geometry import convex_hull
from .graph import GkmGraph, OrientedGkmGraph

_SIZE = 560.0
_MARGIN = 60.0


def _transform(points):
    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y) or 1.0
    scale = (_SIZE - 2 * _MARGIN) / span
    off_x = (_SIZE - scale * (max_x - min_x)) / 2.0
    off_y = (_SIZE - scale * (max_y - min_y)) / 2.0

    def to_screen(p):
        x = off_x + (float(p[0]) - min_x) * scale
        y = _SIZE - (off_y + (float(p[1]) - min_y) * scale)
        return x, y

    return to_screen


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def render_svg(graph: GkmGraph, oriented: Optional[OrientedGkmGraph] = None,
               title: str = "") -> str:
    """Render a planar graph to an SVG string."""
    mu_points = [graph.mu(v) for v in graph.vertex_ids()]
    to_screen = _transform(mu_points)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(_SIZE)} {_fmt(_SIZE)}" '
        f'width="{_fmt(_SIZE)}" height="{_fmt(_SIZE)}">',
        f'<rect width="{_fmt(_SIZE)}" height="{_fmt(_SIZE)}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(_SIZE / 2)}" y="28" text-anchor="middle" '
            f'font-family="monospace" font-size="16">{title}</text>'
        )

    hull = convex_hull(mu_points)
    if len(hull) >= 3:
        coords = " ".join(
            "%s,%s" % tuple(map(_fmt, to_screen(p))) for p in hull
        )
        parts.append(f'<polygon points="{coords}" fill="#d8d8d8" stroke="none"/>')

    for e in graph.edges:
        x1, y1 = to_screen(graph.mu(e.first))
        x2, y2 = to_screen(graph.mu(e.second))
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
        if oriented is not None:
            tail, head = oriented.tail(e), oriented.head(e)
            ax, ay = to_screen(graph.mu(tail))
            bx, by = to_screen(graph.mu(head))
            mx, my = ax + 0.55 * (bx - ax), ay + 0.55 * (by - ay)
            dx, dy = bx - ax, by - ay
            norm = (dx * dx + dy * dy) ** 0.5 or 1.0
            ux, uy = dx / norm, dy / norm
            px, py = -uy, ux
            size = 7.0
            tip = (mx + ux * size, my + uy * size)
            left = (mx - ux * size * 0.6 + px * size * 0.6,
                    my - uy * size * 0.6 + py * size * 0.6)
            right = (mx - ux * size * 0.6 - px * size * 0.6,
                     my - uy * size * 0.6 - py * size * 0.6)
            coords = " ".join("%s,%s" % tuple(map(_fmt, pt)) for pt in (tip, left, right))
            parts.append(f'<polygon points="{coords}" fill="black"/>')

    for vid in graph.vertex_ids():
        x, y = to_screen(graph.mu(vid))
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="black"/>')
        label = vid
        if oriented is not None:
            label = f"{vid} (d={oriented.down_degree(vid)})"
        parts.append(
            f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" font-family="monospace" '
            f'font-size="13">{label}</text>'
        )

    if oriented is not None:
        xi = oriented.xi
        parts.append(
            f'<text x="16" y="{_fmt(_SIZE - 18)}" font-family="monospace" font-size="13">'
            f'xi = ({", ".join(str(c) for c in xi)})</text>'
        )
        # Margin arrow in the covector direction.
        to_unit = (float(xi[0]), float(xi[1]))
        norm = (to_unit[0] ** 2 + to_unit[1] ** 2) ** 0.5 or 1.0
        ux, uy = to_unit[0] / norm, -to_unit[1] / norm
        x0, y0 = 30.0, _SIZE - 50.0
        x1, y1 = x0 + 24 * ux, y0 + 24 * uy
        parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="black" stroke-width="1.5"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(x1)}" cy="{_fmt(y1)}" r="2.5" fill="black"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
