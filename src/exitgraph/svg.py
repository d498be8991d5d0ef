"""Deterministic SVG 1.1 rendering of primal exit graphs and dual
arrangements.

All geometry stays exact until the final number formatting (20
significant digits); rendering the same point set twice yields
byte-identical documents.  Each point is formatted once, as the text of
its x and of its negated y, so that mathematical y points up on screen;
the canvas draws from that text.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from .arrangement import _side
from .dual import DualLine, crossing_position, dual_triangles, dualize
from .geometry import PointSet, convex_hull, shear_to_generic


def format_number(value: Fraction) -> str:
    """Decimal rendering with 20 significant digits, trailing zeros
    stripped; the only place exact values leave the rational world."""
    with localcontext() as ctx:
        ctx.prec = 20
        d = Decimal(value.numerator) / Decimal(value.denominator)
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


def _xy(x: Fraction, y: Fraction) -> tuple[str, str]:
    """The text of a point on the canvas: its x, and its y negated."""
    return format_number(x), format_number(-y)


def _bbox(points):
    (x0, x1), (y0, y1) = [(min(c), max(c)) for c in zip(*points)]
    mx = (x1 - x0) / 10 or Fraction(1)
    my = (y1 - y0) / 10 or Fraction(1)
    return x0 - mx, x1 + mx, y0 - my, y1 + my


class _Canvas:
    """A document over the viewport [x0, x1] x [y0, y1]; the drawing
    methods take formatted text: points as ``_xy`` pairs, polygon
    corners as their "x,y" text."""

    def __init__(self, x0, x1, y0, y1):
        f = format_number
        self.base = max(x1 - x0, y1 - y0)
        self.parts = [
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{f(x0)} {f(-y1)} {f(x1 - x0)} {f(y1 - y0)}">']

    def line(self, p, q, stroke, width, cls, dash=None):
        dash_attr = f' stroke-dasharray="{dash} {dash}"' if dash else ""
        self.parts.append(
            f'<line class="{cls}" x1="{p[0]}" y1="{p[1]}" '
            f'x2="{q[0]}" y2="{q[1]}" stroke="{stroke}" '
            f'stroke-width="{width}"{dash_attr} />')

    def polygon(self, corners, fill, cls, tag):
        self.parts.append(
            f'<polygon class="{cls}" data-cell="{tag}" points="{" ".join(corners)}" '
            f'fill="{fill}" />')

    def disk(self, p, radius, fill, cls):
        self.parts.append(
            f'<circle class="{cls}" cx="{p[0]}" cy="{p[1]}" r="{radius}" fill="{fill}" />')

    def document(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _render_primal(ps: PointSet, edges: list[tuple[int, int]]) -> str:
    pts = ps.points
    canvas = _Canvas(*_bbox([(p.x, p.y) for p in pts]))
    base = canvas.base
    radius = base * 3 / 200
    f = format_number
    thin, dash, width, r, font = (f(base / 200), f(base / 50), f(base / 100),
                                  f(radius), f(base / 20))
    xy = [_xy(p.x, p.y) for p in pts]

    hull = convex_hull(ps)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        canvas.line(xy[a], xy[b], "#999999", thin, "hull", dash)
    for a, b in edges:
        canvas.line(xy[a], xy[b], "#000000", width, "exit-edge")
    for i, p in enumerate(pts):
        canvas.disk(xy[i], r, "#000000", "point")
        x, y = _xy(p.x + radius * 2, p.y + radius * 2)
        canvas.parts.append(
            f'<text class="label" x="{x}" y="{y}" font-family="sans-serif" '
            f'font-size="{font}" fill="#000000">{i}</text>')
    return canvas.document()


def _clip_halfplane(poly, side):
    """Sutherland-Hodgman step: keep the side(pt) >= 0 part of a convex
    polygon; exact rational intersections."""
    out = []
    for idx in range(len(poly)):
        cur = poly[idx]
        nxt = poly[(idx + 1) % len(poly)]
        fc, fn = side(cur), side(nxt)
        if fc >= 0:
            out.append(cur)
        if (fc >= 0) != (fn >= 0):
            t = fc / (fc - fn)
            out.append((cur[0] + t * (nxt[0] - cur[0]),
                        cur[1] + t * (nxt[1] - cur[1])))
    return out


def _halfplane(line: DualLine, sign: int):
    def side(pt):
        return sign * (pt[1] - line.y_at(pt[0]))

    return side


def _clip_line_to_rect(line: DualLine, x0, x1, y0, y1):
    """The piece of a non-vertical line inside the viewport.  Every dual
    line passes through a crossing strictly inside the viewport, so the
    piece is never empty."""
    ay, by = line.y_at(x0), line.y_at(x1)
    t0, t1 = Fraction(0), Fraction(1)
    dy = by - ay
    if dy:
        ta, tb = sorted(((y0 - ay) / dy, (y1 - ay) / dy))
        t0, t1 = max(t0, ta), min(t1, tb)
    dx = x1 - x0
    return (x0 + t0 * dx, ay + t0 * dy), (x0 + t1 * dx, ay + t1 * dy)


def _extreme_crossings(lines: list[DualLine]) -> list[tuple[Fraction, Fraction]]:
    """O(n) crossings whose bounding box is that of all n(n-1)/2: those
    of the lines adjacent by slope, and of the non-horizontal lines
    adjacent by 1/slope.

    No crossing lies left of the leftmost one, so there the lines are in
    their order at x = -infinity, by slope, and the two lines crossing
    there are adjacent in it (a line between them would pass through the
    crossing); the same holds for the rightmost one.  Read with x and y
    swapped, a non-horizontal line has slope 1/slope, so the lowest and
    highest crossings of those lines join lines adjacent by 1/slope.
    Every crossing of the one horizontal line, if any, has the y of its
    crossing with a slope neighbour.  See de Berg et al., Computational
    Geometry, ch. 8, for the sweep.
    """
    by_slope = sorted(lines, key=lambda l: l.slope)
    steep = sorted((l for l in lines if l.slope), key=lambda l: 1 / l.slope)
    pairs = [*zip(by_slope, by_slope[1:]), *zip(steep, steep[1:])]
    return [crossing_position(a, b) for a, b in pairs]


def dual_cell_polygons(ps: PointSet):
    """Exact viewport-clipped polygons of the unmarked triangular cells.

    Returns (viewport corners, dual lines of the sheared set, crossing
    positions, pieces).  The viewport is the bounding box of all
    crossings with a margin, taken from ``_extreme_crossings``, and the
    positions are those of the cell vertices alone, keyed by the pair of
    lines.  pieces is a list of (triangle, tag, polygon) with rational
    polygon vertices, and cells glued across infinity contribute two
    polygons under one tag.  A cell equals the intersection of its three
    bounding halfplanes, so clipping those against the viewport
    reproduces it exactly.
    """
    tris = dual_triangles(ps)  # refuses fewer than 3 points first
    sheared, _ = shear_to_generic(ps)
    lines = dualize(sheared)
    x0, x1, y0, y1 = _bbox(_extreme_crossings(lines))
    rect = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    positions: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    pieces = []
    for t in tris:
        if t.marked:
            continue
        for i, j in t.vertices:
            if (i, j) not in positions:
                positions[i, j] = crossing_position(lines[i], lines[j])
        tag = "t" + "-".join(map(str, t.lines))
        if not t.unbounded_lines:
            pieces.append((t, tag, [positions[v] for v in t.vertices]))
            continue
        p, q = sorted(t.unbounded_lines)
        tag += f"u{p}-{q}"
        w = next(l for l in t.lines if l not in t.unbounded_lines)
        lp, lq, lw = lines[p], lines[q], lines[w]
        apex = positions[p, q]
        vp, vq = positions[min(p, w), max(p, w)], positions[min(q, w), max(q, w)]
        # the wedge at the apex is the angle opposite the triangle
        # apex, vp, vq: across line p from vq and across line q from vp
        sp, sq = -_side(lp, vq), -_side(lq, vp)
        wedge = _clip_halfplane(_clip_halfplane(rect, _halfplane(lp, sp)),
                                _halfplane(lq, sq))
        far = _clip_halfplane(_clip_halfplane(_clip_halfplane(
            rect, _halfplane(lp, -sp)), _halfplane(lq, -sq)),
            _halfplane(lw, -_side(lw, apex)))
        for piece in (wedge, far):
            if len(piece) >= 3:
                pieces.append((t, tag, piece))
    return rect, lines, positions, pieces


def _render_dual(ps: PointSet) -> str:
    rect, lines, positions, pieces = dual_cell_polygons(ps)
    (x0, y0), _, (x1, y1), _ = rect
    canvas = _Canvas(x0, x1, y0, y1)
    # one "x,y" text per cell vertex: with a tuple of two strings the
    # figure of 500 points peaked at 172 MiB, not 161
    text = {v: ",".join(_xy(*pos)) for v, pos in positions.items()}

    # shaded unmarked triangular cells; a bounded cell's polygon is its
    # vertices, and glued cells render as two clipped pieces
    for t, tag, poly in pieces:
        corners = ([",".join(_xy(*v)) for v in poly] if t.unbounded_lines
                   else [text[v] for v in t.vertices])
        canvas.polygon(corners, "#cccccc", "cell", tag)

    width = format_number(canvas.base / 300)
    for line in lines:
        a, b = _clip_line_to_rect(line, x0, x1, y0, y1)
        canvas.line(_xy(*a), _xy(*b), "#333333", width, "dual-line")

    # exit vertices as filled disks
    radius = format_number(canvas.base / 80)
    for v in dict.fromkeys(t.exit_vertex for t, _tag, _poly in pieces):
        canvas.disk(text[v].split(","), radius, "#000000", "exit-vertex")
    return canvas.document()


def render_svg(ps: PointSet, mode: str = "primal") -> str:
    """Render the point set; ``mode`` is "primal" (exit graph) or "dual"
    (line arrangement with shaded triangular cells)."""
    if mode == "primal":
        from .dual import exit_edges_dual

        return _render_primal(ps, exit_edges_dual(ps).pairs())
    if mode == "dual":
        return _render_dual(ps)
    raise ValueError(f"unknown render mode {mode!r}")
