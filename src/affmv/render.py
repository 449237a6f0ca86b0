"""Schematic drawings of decorated polytopes as SVG or TikZ.

The root lattice embeds in the plane with alpha1 pointing up-right and
alpha0 up-left (twice as long for the twisted algebra), which makes the
imaginary direction vertical.  The boundary polygon is traversed once
counterclockwise; the two vertical edges carry tick marks cutting them
into the pieces given by the partitions, largest piece first from the
bottom.  All drawing coordinates are integers, so the output text is
exactly reproducible.
"""

from __future__ import annotations

from .lusztig import LusztigDatum, _ladder_runs
from .polytope import DecoratedPolytope
from .roots import HIGH, LOW, Algebra, RootVector, beta, delta

__all__ = ["boundary_geometry", "render_svg", "render_tikz"]

_EMBED = {
    Algebra.SL2_HAT: ((-1, 1), (1, 1)),
    Algebra.A2_TWISTED: ((-2, 2), (1, 1)),
}


def _embed(kind: Algebra, v: RootVector) -> tuple[int, int]:
    (x0, y0), (x1, y1) = _EMBED[kind]
    return (v.a * x0 + v.b * x1, v.a * y0 + v.b * y1)


def _ladder_steps(d: LusztigDatum, family: str) -> list[RootVector]:
    """The edges of d's `family` ladder in the order the boundary takes
    them: the low ladder ascending in k, the high one descending."""
    low, high = _ladder_runs(d.real)
    run = low if family == LOW else reversed(high)
    return [mult * beta(d.kind, family, k) for _, k, mult in run]


def boundary_geometry(
    P: DecoratedPolytope,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Counterclockwise polygon vertices and the partition tick points.

    Returns (corners, ticks) in embedded integer coordinates.  Corners
    start at the origin, climb the right boundary (low ladder ascending,
    the vertical edge, high ladder descending), then descend the left
    boundary back to the origin.  Ticks are the interior cut points of
    the two vertical edges.
    """
    kind = P.kind
    dv = delta(kind)
    corners = [RootVector(0, 0)]
    ticks: list[RootVector] = []

    def walk(steps: list[RootVector], sign: int) -> None:
        for step in steps:
            corners.append(corners[-1] + sign * step)

    def vertical(parts: tuple[int, ...], sign: int) -> None:
        # Cut points accumulate from the traversal start of the edge;
        # drawn bottom-up this puts the largest piece at the bottom on
        # the right edge (the left edge is traversed downward).
        total = sum(parts)
        if not total:
            return
        run = 0
        for part in parts[:-1]:
            run += part
            ticks.append(corners[-1] + sign * (run * dv))
        corners.append(corners[-1] + sign * (total * dv))

    walk(_ladder_steps(P.right, LOW), +1)
    vertical(P.right.delta, +1)
    walk(_ladder_steps(P.right, HIGH), +1)
    walk(_ladder_steps(P.left, LOW), -1)
    vertical(P.left.delta, -1)
    walk(_ladder_steps(P.left, HIGH), -1)

    embedded = [_embed(kind, c) for c in corners]
    if embedded[-1] == embedded[0] and len(embedded) > 1:
        embedded.pop()
    return embedded, [_embed(kind, p) for p in ticks]


def render_svg(P: DecoratedPolytope, scale: int = 24) -> str:
    """Standalone SVG drawing of the polygon with its decorations."""
    corners, ticks = boundary_geometry(P)
    xs = [x for x, _ in corners] or [0]
    ys = [y for _, y in corners] or [0]
    margin = 2
    minx, maxx = min(xs) - margin, max(xs) + margin
    miny, maxy = min(ys) - margin, max(ys) + margin
    width = (maxx - minx) * scale
    height = (maxy - miny) * scale

    def at(p: tuple[int, int]) -> tuple[int, int]:
        return ((p[0] - minx) * scale, (maxy - p[1]) * scale)

    w = P.weight
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"  <title>{P.kind.value} polytope, weight ({w.a},{w.b})</title>",
    ]
    if len(corners) == 1:
        x, y = at(corners[0])
        lines.append(f'  <circle cx="{x}" cy="{y}" r="4" fill="black"/>')
    else:
        points = " ".join(f"{x},{y}" for x, y in (at(c) for c in corners))
        lines.append(
            f'  <polygon points="{points}" fill="none" stroke="black" stroke-width="2"/>'
        )
        for c in corners:
            x, y = at(c)
            lines.append(f'  <circle cx="{x}" cy="{y}" r="4" fill="black"/>')
    for p in ticks:
        x, y = at(p)
        lines.append(f'  <circle cx="{x}" cy="{y}" r="3" fill="white" stroke="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_tikz(P: DecoratedPolytope) -> str:
    """TikZ picture of the same drawing, coordinates in lattice units."""
    corners, ticks = boundary_geometry(P)
    w = P.weight
    lines = [
        f"% {P.kind.value} polytope, weight ({w.a},{w.b})",
        "\\begin{tikzpicture}[scale=0.6]",
    ]
    if len(corners) == 1:
        x, y = corners[0]
        lines.append(f"  \\fill ({x},{y}) circle (3pt);")
    else:
        path = " -- ".join(f"({x},{y})" for x, y in corners)
        lines.append(f"  \\draw[thick] {path} -- cycle;")
        for x, y in corners:
            lines.append(f"  \\fill ({x},{y}) circle (3pt);")
    for x, y in ticks:
        lines.append(f"  \\draw[fill=white] ({x},{y}) circle (2pt);")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
