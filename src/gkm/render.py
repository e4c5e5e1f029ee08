"""Deterministic SVG drawings of planar moment graphs.

The picture shows the shaded convex hull of the moment positions, every
edge as a segment (with an arrowhead at its midpoint when an orientation
is supplied), labeled vertices with their down-degrees, and the covector
in the margin.  Output is a pure function of the input, so files are
byte-identical across runs.

Coordinates are exact rationals like every other quantity: each is
rounded to two decimals only when printed, and the arrows' lengths come
from ``math.isqrt`` of a scaled integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Optional

from .geometry import convex_hull
from .graph import GkmGraph, OrientedGkmGraph

_SIZE = 560
_MARGIN = 60
_ROOT_SCALE = 10 ** 6


def _transform(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    min_x, max_x = min(xs, default=0), max(xs, default=0)  # an empty graph draws no points
    min_y, max_y = min(ys, default=0), max(ys, default=0)
    span = max(max_x - min_x, max_y - min_y) or Fraction(1)
    scale = (_SIZE - 2 * _MARGIN) / span
    off_x = (_SIZE - scale * (max_x - min_x)) / 2
    off_y = (_SIZE - scale * (max_y - min_y)) / 2

    def to_screen(p):
        x = off_x + (p[0] - min_x) * scale
        y = _SIZE - (off_y + (p[1] - min_y) * scale)
        return x, y

    return to_screen


def _length(dx: Fraction, dy: Fraction) -> Fraction:
    """The length of (dx, dy) rounded down to a multiple of 1 / _ROOT_SCALE,
    or 1 where that is 0, as for the zero vector."""
    q = Fraction(dx * dx + dy * dy)
    root = isqrt(q.numerator * _ROOT_SCALE ** 2 // q.denominator)
    return Fraction(root, _ROOT_SCALE) if root else Fraction(1)


def _fmt(value) -> str:
    """An exact number to two decimals, rounding half to even."""
    hundredths = round(Fraction(value) * 100)
    whole, cents = divmod(abs(hundredths), 100)
    return f"{'-' if hundredths < 0 else ''}{whole}.{cents:02d}"


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
            f'<text x="{_fmt(_SIZE // 2)}" y="28" text-anchor="middle" '
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
            up = e in oriented.up_edges(e.first)
            tail, head = (e.first, e.second) if up else (e.second, e.first)
            ax, ay = to_screen(graph.mu(tail))
            bx, by = to_screen(graph.mu(head))
            dx, dy = bx - ax, by - ay
            mx, my = ax + Fraction(11, 20) * dx, ay + Fraction(11, 20) * dy
            norm = _length(dx, dy)
            ux, uy = dx / norm, dy / norm
            px, py = -uy, ux
            size, side = 7, Fraction(21, 5)  # side = 0.6 * size
            tip = (mx + ux * size, my + uy * size)
            left = (mx - ux * side + px * side, my - uy * side + py * side)
            right = (mx - ux * side - px * side, my - uy * side - py * side)
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
        norm = _length(xi[0], xi[1])
        ux, uy = xi[0] / norm, -xi[1] / norm
        x0, y0 = 30, _SIZE - 50
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
