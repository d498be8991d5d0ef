"""The SVG writer as it stood before each point was formatted once and the
dual viewport came from O(n) crossings, frozen as the reference of a
differential test: the figures must stay byte-identical to it.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

from exitgraph.dual import dual_triangles
from exitgraph.geometry import PointSet, convex_hull, shear_to_generic
from reference_arrangement import DualLine, _side, crossing_position, dualize


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


def _bbox(points: list[tuple[Fraction, Fraction]]):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    mx = (x1 - x0) / 10 or Fraction(1)
    my = (y1 - y0) / 10 or Fraction(1)
    return x0 - mx, x1 + mx, y0 - my, y1 + my


class _Canvas:
    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.base = max(x1 - x0, y1 - y0)
        self.parts: list[str] = []

    def open_document(self):
        f = format_number
        self.parts.append(
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{f(self.x0)} {f(-self.y1)} {f(self.x1 - self.x0)} '
            f'{f(self.y1 - self.y0)}">')

    def line(self, p, q, stroke, width: Fraction, cls, dash: Fraction | None = None):
        f = format_number
        dash_attr = ""
        if dash is not None:
            dash_attr = f' stroke-dasharray="{f(dash)} {f(dash)}"'
        self.parts.append(
            f'<line class="{cls}" x1="{f(p[0])}" y1="{f(-p[1])}" '
            f'x2="{f(q[0])}" y2="{f(-q[1])}" stroke="{stroke}" '
            f'stroke-width="{f(width)}"{dash_attr} />')

    def polygon(self, pts, fill, cls, tag: str | None = None):
        f = format_number
        coords = " ".join(f"{f(x)},{f(-y)}" for x, y in pts)
        attr = f' data-cell="{tag}"' if tag else ""
        self.parts.append(
            f'<polygon class="{cls}"{attr} points="{coords}" fill="{fill}" />')

    def disk(self, p, radius: Fraction, fill, cls):
        f = format_number
        self.parts.append(
            f'<circle class="{cls}" cx="{f(p[0])}" cy="{f(-p[1])}" '
            f'r="{f(radius)}" fill="{fill}" />')

    def text(self, p, content, size: Fraction):
        f = format_number
        self.parts.append(
            f'<text class="label" x="{f(p[0])}" y="{f(-p[1])}" '
            f'font-family="sans-serif" font-size="{f(size)}" '
            f'fill="#000000">{content}</text>')

    def document(self) -> str:
        return "\n".join(self.parts) + "\n</svg>\n"


def _render_primal(ps: PointSet, edges: list[tuple[int, int]]) -> str:
    pts = [(p.x, p.y) for p in ps.points]
    canvas = _Canvas(*_bbox(pts))
    canvas.open_document()
    base = canvas.base
    thin = base / 200
    radius = base * 3 / 200
    font = base / 20

    hull = convex_hull(ps)
    for t in range(len(hull)):
        canvas.line(pts[hull[t]], pts[hull[(t + 1) % len(hull)]],
                    "#999999", thin, "hull", dash=base / 50)
    for a, b in edges:
        canvas.line(pts[a], pts[b], "#000000", base / 100, "exit-edge")
    for i, p in enumerate(pts):
        canvas.disk(p, radius, "#000000", "point")
        canvas.text((p[0] + radius * 2, p[1] + radius * 2), str(i), font)
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


def _clip_line_to_rect(line: DualLine, canvas: _Canvas):
    """Visible piece of a non-vertical line inside the viewport, or None."""
    ay, by = line.y_at(canvas.x0), line.y_at(canvas.x1)
    t0, t1 = Fraction(0), Fraction(1)
    dy = by - ay
    if dy == 0:
        if not canvas.y0 <= ay <= canvas.y1:
            return None
    else:
        ta = (canvas.y0 - ay) / dy
        tb = (canvas.y1 - ay) / dy
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 >= t1:
            return None
    dx = canvas.x1 - canvas.x0
    return ((canvas.x0 + t0 * dx, ay + t0 * dy),
            (canvas.x0 + t1 * dx, ay + t1 * dy))


def dual_cell_polygons(ps: PointSet):
    """Exact viewport-clipped polygons of the unmarked triangular cells.

    Returns (viewport corners, dual lines of the sheared set, crossing
    positions, pieces); pieces is a list of (triangle, tag, polygon) with
    rational polygon vertices, and cells glued across infinity
    contribute two polygons under one tag.  A cell equals the
    intersection of its three bounding halfplanes, so clipping those
    against the viewport reproduces it exactly.
    """
    sheared, _ = shear_to_generic(ps)
    lines = dualize(sheared)
    by_source = {l.source: l for l in lines}
    tris = dual_triangles(ps)

    positions: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            li, lj = lines[i], lines[j]
            key = tuple(sorted((li.source, lj.source)))
            positions[key] = crossing_position(li, lj)

    x0, x1, y0, y1 = _bbox(list(positions.values()))
    rect = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    pieces = []
    for t in tris:
        if t.marked:
            continue
        tag = "t" + "-".join(str(l) for l in t.lines)
        if t.unbounded_lines:
            tag += "u" + "-".join(str(l) for l in sorted(t.unbounded_lines))
        if not t.unbounded_lines:
            pieces.append((t, tag, [positions[v] for v in t.vertices]))
            continue
        p_src, q_src = sorted(t.unbounded_lines)
        w_src = next(l for l in t.lines if l not in t.unbounded_lines)
        lp, lq, lw = by_source[p_src], by_source[q_src], by_source[w_src]
        apex = positions[tuple(sorted((p_src, q_src)))]
        vp = positions[tuple(sorted((p_src, w_src)))]
        vq = positions[tuple(sorted((q_src, w_src)))]
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
    canvas.open_document()
    base = canvas.base

    # shaded unmarked triangular cells; glued cells render as two pieces
    for _t, tag, poly in pieces:
        canvas.polygon(poly, "#cccccc", "cell", tag)

    # dual lines clipped to the viewport
    for line in lines:
        seg = _clip_line_to_rect(line, canvas)
        if seg is not None:
            canvas.line(seg[0], seg[1], "#333333", base / 300, "dual-line")

    # exit vertices as filled disks
    seen = set()
    for t, _tag, _poly in pieces:
        if t.exit_vertex in seen:
            continue
        seen.add(t.exit_vertex)
        canvas.disk(positions[t.exit_vertex], base / 80, "#000000", "exit-vertex")
    return canvas.document()


def render_svg(ps: PointSet, mode: str = "primal") -> str:
    """Render the point set; ``mode`` is "primal" (exit graph) or "dual"
    (line arrangement with shaded triangular cells)."""
    if mode == "primal":
        from exitgraph.dual import exit_edges_dual

        return _render_primal(ps, exit_edges_dual(ps).pairs())
    if mode == "dual":
        return _render_dual(ps)
    raise ValueError(f"unknown render mode {mode!r}")
