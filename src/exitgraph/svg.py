"""Deterministic SVG 1.1 rendering of primal exit graphs and dual
arrangements.

All geometry stays exact until the final number formatting (20
significant digits); rendering the same point set twice yields
byte-identical documents.  Both figures hold each point as an integer
homogeneous triple (X, Y, W) with W > 0, the point (X/W, Y/W): point i
of the primal figure is (x_i, y_i, scale) from ``PointSet.int_coords``,
and the dual figure so holds every crossing and every corner of a
clipped cell.  ``_point_text`` formats each point once, as the text of
its x and of its negated y, so that mathematical y points up on screen;
the canvas draws from that text.  Every clip to the viewport, of a dual
line or of a cell, is a ``_clip_halfplane`` step.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from functools import cmp_to_key

from .dual import _dual_coefficients, _unmarked_cells
from .geometry import PointSet, TooFewPointsError, convex_hull, shear_to_generic

# one context for every number: a localcontext per call cost as much as
# the division itself
_DECIMAL = Context(prec=20)


def _decimal_text(d: Decimal) -> str:
    """d in fixed point, trailing zeros stripped, and "0" for zero."""
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


def _ratio_text(num: int, den: int) -> str:
    """num/den, den > 0, as a decimal of 20 significant digits, rounded
    half to even, trailing zeros stripped."""
    return _decimal_text(_DECIMAL.divide(Decimal(num), Decimal(den)))


def format_number(value: Fraction) -> str:
    """Decimal rendering with 20 significant digits, trailing zeros
    stripped; the only place exact values leave the rational world."""
    return _ratio_text(value.numerator, value.denominator)


def _point_text(X: int, Y: int, W: int) -> str:
    """The "x,y" text of the homogeneous point (X, Y, W), W > 0, on the
    canvas: X/W and -Y/W as ``_ratio_text`` writes them."""
    w = Decimal(W)
    divide = _DECIMAL.divide
    return f"{_decimal_text(divide(Decimal(X), w))},{_decimal_text(divide(Decimal(-Y), w))}"


def _bbox(points):
    """The viewport (x0, x1, y0, y1) of the homogeneous points: their
    bounding box, widened on each side by a tenth of its width and of its
    height, or by 1 where that is 0."""
    box = [(Fraction(X, W), Fraction(Y, W)) for X, Y, W in points]
    (x0, x1), (y0, y1) = [(min(c), max(c)) for c in zip(*box)]
    mx = (x1 - x0) / 10 or Fraction(1)
    my = (y1 - y0) / 10 or Fraction(1)
    return x0 - mx, x1 + mx, y0 - my, y1 + my


class _Canvas:
    """A document over the viewport [x0, x1] x [y0, y1]; the drawing
    methods take each point as text from ``_point_text``: polygon
    corners as "x,y", the ends of a line and the centre of a disk as the
    pair that splitting "x,y" at the comma gives."""

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
    k = ps.scale
    canvas = _Canvas(*_bbox([(x, y, k) for x, y in ps.int_coords]))
    base = canvas.base
    radius = base * 3 / 200
    f = format_number
    thin, dash, width, r, font = (f(base / 200), f(base / 50), f(base / 100),
                                  f(radius), f(base / 20))
    xy = [_point_text(x, y, k).split(",") for x, y in ps.int_coords]

    hull = convex_hull(ps)
    for a, b in zip(hull, hull[1:] + hull[:1]):
        canvas.line(xy[a], xy[b], "#999999", thin, "hull", dash)
    for a, b in edges:
        canvas.line(xy[a], xy[b], "#000000", width, "exit-edge")
    # each label sits at the point plus (2 radius, 2 radius) = (u/d, u/d) / k
    u, d = (radius * 2 * k).as_integer_ratio()
    for i, (x, y) in enumerate(ps.int_coords):
        canvas.disk(xy[i], r, "#000000", "point")
        x, y = _point_text(x * d + u, y * d + u, k * d).split(",")
        canvas.parts.append(
            f'<text class="label" x="{x}" y="{y}" font-family="sans-serif" '
            f'font-size="{font}" fill="#000000">{i}</text>')
    return canvas.document()


# -- the dual figure ------------------------------------------------
#
# Point i of the sheared set is (A_i, -B_i) / s on its integer grid, so
# its dual line is y = (A_i x + B_i) / s.  Lines i and j cross at the
# homogeneous point W = s(A_i - A_j), X = s(B_j - B_i),
# Y = A_i B_j - A_j B_i, and a point lies above line k iff
# s Y - A_k X - B_k W > 0.

def _crossing(a: list[int], b: list[int], s: int, i: int, j: int) -> tuple[int, int, int]:
    """The crossing of dual lines i and j as (X, Y, W), W > 0."""
    d = a[i] - a[j]
    if d > 0:
        return s * (b[j] - b[i]), a[i] * b[j] - a[j] * b[i], s * d
    return s * (b[i] - b[j]), a[j] * b[i] - a[i] * b[j], -s * d


def _above(ak: int, bk: int, s: int, point: tuple[int, int, int]) -> int:
    """The sign of the point's height above the line y = (ak x + bk) / s."""
    X, Y, W = point
    f = s * Y - ak * X - bk * W
    return (f > 0) - (f < 0)


def _clip_halfplane(poly, ak: int, bk: int, s: int, sign: int):
    """Sutherland-Hodgman step: keep the part of a convex polygon of
    homogeneous points where sign * (height above the line) >= 0.  The
    edge PQ crosses the line at f(P) Q - f(Q) P, f the height form."""
    f = [sign * (s * Y - ak * X - bk * W) for X, Y, W in poly]
    out = []
    for p, fp, q, fq in zip(poly, f, poly[1:] + poly[:1], f[1:] + f[:1]):
        if fp >= 0:
            out.append(p)
            if fq < 0:
                out.append((fp * q[0] - fq * p[0], fp * q[1] - fq * p[1],
                            fp * q[2] - fq * p[2]))
        elif fq >= 0:
            out.append((fq * p[0] - fp * q[0], fq * p[1] - fp * q[1],
                        fq * p[2] - fp * q[2]))
    return out


def _corners(x0: Fraction, x1: Fraction, y0: Fraction, y1: Fraction) -> list[tuple[int, int, int]]:
    """The corners of the viewport, counterclockwise from (x0, y0)."""
    return [(x.numerator * y.denominator, y.numerator * x.denominator,
             x.denominator * y.denominator) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))]


# x(u) < x(v) iff X_u W_v < X_v W_u, for W > 0
_BY_X = cmp_to_key(lambda u, v: u[0] * v[2] - v[0] * u[2])


def _extreme_crossings(a: list[int], b: list[int], s: int) -> list[tuple[int, int, int]]:
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
    lines = range(len(a))
    by_slope = sorted(lines, key=a.__getitem__)
    # 1/A ascends over the negative A, descending, then the positive A,
    # descending
    steep = sorted((k for k in lines if a[k]), key=lambda k: (a[k] > 0, -a[k]))
    pairs = [*zip(by_slope, by_slope[1:]), *zip(steep, steep[1:])]
    return [_crossing(a, b, s, i, j) for i, j in pairs]


def dual_cell_polygons(ps: PointSet):
    """Exact viewport-clipped polygons of the unmarked triangular cells.

    Returns (viewport, coefficients, positions, pieces).  The viewport
    (x0, x1, y0, y1) is the bounding box of all crossings with a margin,
    taken from ``_extreme_crossings``.  coefficients is (A, B, s): the
    dual line i of the sheared set is y = (A[i] x + B[i]) / s.
    positions maps each cell vertex, the pair i < j of lines, to its
    crossing (X, Y, W), and holds no other crossing.  pieces is a list of
    (cell, tag, polygon), cell being one (lines, unbounded, exit vertex)
    of ``dual._unmarked_cells``, in its order, and polygons are lists of
    homogeneous points.  A bounded cell's polygon is its three vertices.
    A cell glued across infinity, whose arcs through infinity lie on the
    lines p and q, has one sign for each of p, q and its third line w,
    and the viewport clipped by those signs is its far piece; clipped by
    the opposite signs, it is the wedge at the crossing of p and q, which
    line w misses.  The two pieces share one tag.
    """
    if len(ps) < 3:
        raise TooFewPointsError("dual triangle scan needs at least 3 points")
    sheared, _ = shear_to_generic(ps)
    a, b = _dual_coefficients(sheared)  # the shear of a sheared set is the identity
    s = sheared.scale
    viewport = _bbox(_extreme_crossings(a, b, s))
    rect = _corners(*viewport)
    positions: dict[tuple[int, int], tuple[int, int, int]] = {}

    def vertex(i, j):
        pos = positions.get((i, j))
        if pos is None:
            pos = positions[i, j] = _crossing(a, b, s, i, j)
        return pos

    pieces = []
    for cell in _unmarked_cells(a, b):
        (i, j, k), unbounded, _ = cell
        polygon = [vertex(i, j), vertex(i, k), vertex(j, k)]
        tag = f"t{i}-{j}-{k}"
        if not unbounded:
            pieces.append((cell, tag, polygon))
            continue
        p, q = unbounded
        tag += f"u{p}-{q}"
        w = i + j + k - p - q
        apex = positions[p, q]
        vp, vq = positions[min(p, w), max(p, w)], positions[min(q, w), max(q, w)]
        # the far piece lies on vq's side of line p, on vp's side of line
        # q and across line w from the apex; the wedge at the apex, the
        # angle opposite the triangle apex, vp, vq, lies across all three,
        # since line w meets lines p and q only at vp and vq
        signs = {p: _above(a[p], b[p], s, vq), q: _above(a[q], b[q], s, vp),
                 w: -_above(a[w], b[w], s, apex)}
        for t in (-1, 1):  # the wedge, then the far piece
            piece = rect
            for line, sign in signs.items():
                piece = _clip_halfplane(piece, a[line], b[line], s, t * sign)
            if len(piece) >= 3:
                pieces.append((cell, tag, piece))
    return viewport, (a, b, s), positions, pieces


def _render_dual(ps: PointSet) -> str:
    viewport, (a, b, s), positions, pieces = dual_cell_polygons(ps)
    canvas = _Canvas(*viewport)
    # one "x,y" text per cell vertex: with a tuple of two strings the
    # figure of 500 points peaked at 172 MiB, not 161
    text = {v: _point_text(*pos) for v, pos in positions.items()}

    # shaded unmarked triangular cells; a bounded cell's polygon is its
    # vertices, and glued cells render as two clipped pieces
    for ((i, j, k), unbounded, _), tag, poly in pieces:
        corners = ([_point_text(*v) for v in poly] if unbounded
                   else [text[i, j], text[i, k], text[j, k]])
        canvas.polygon(corners, "#cccccc", "cell", tag)

    # each line's ends: the corners on it of the viewport's part above it
    width = format_number(canvas.base / 300)
    rect = _corners(*viewport)
    for ak, bk in zip(a, b):
        ends = sorted((v for v in _clip_halfplane(rect, ak, bk, s, 1)
                       if s * v[1] == ak * v[0] + bk * v[2]), key=_BY_X)
        canvas.line(_point_text(*ends[0]).split(","), _point_text(*ends[-1]).split(","),
                    "#333333", width, "dual-line")

    # exit vertices as filled disks
    radius = format_number(canvas.base / 80)
    for v in dict.fromkeys(cell[2] for cell, _tag, _poly in pieces):
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
