"""The projective line arrangement as an explicit cell complex.

The Euclidean arrangement of the n dual lines is traced face by face;
antipodal gluing of unbounded faces then yields the projective cells.
For n simple lines this gives V = n(n-1)/2 vertices, E = n(n-1) edges
and F = 1 + n(n-1)/2 cells with V - E + F = 1.

Every line is a projective cycle of n-1 edges: n-2 bounded segments plus
one arc through infinity running from the rightmost crossing back to the
leftmost.  Edges are stored directed left to right, which is the line
orientation used throughout; the marked cell (the one containing the
point at vertical infinity) is the unique cell whose boundary traversal
agrees with that orientation everywhere, and both characterizations are
computed and compared at build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .dual import ConcurrentLinesError, DualLine, crossing_orders, crossing_position
from .geometry import GeometryError, _grid

Piece = tuple[int, int, int]  # (line index, piece index 0..m, direction +-1)


@dataclass(frozen=True)
class ArrangementVertex:
    """Crossing of two dual lines, named by their source labels."""

    lines: tuple[int, int]
    position: tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ProjectiveEdge:
    """Directed arc of a line between consecutive crossings.

    Direction is left to right; the ``infinite`` edge of each line runs
    from its rightmost crossing through infinity to its leftmost one.
    """

    line: int  # internal line index
    tail: int  # vertex id
    head: int  # vertex id
    infinite: bool


@dataclass(frozen=True)
class ProjectiveCell:
    """A cell of the projective arrangement.

    ``boundary`` is the cyclic walk as (edge id, traversal direction)
    pairs; traversal direction +1 means the edge is walked along its line
    orientation.  ``side_count`` is the number of distinct bounding lines.
    """

    index: int
    boundary: tuple[tuple[int, int], ...]
    side_count: int
    marked: bool

    def consistently_oriented(self) -> bool:
        dirs = {d for _, d in self.boundary}
        return len(dirs) == 1


@dataclass(frozen=True)
class TriangularCell:
    """A three-sided cell with its exit vertex and witness line.

    The boundary edges, directed along their lines, order the three
    vertices transitively unless the cell is marked; the middle vertex is
    the exit vertex and the line through the other two is the witness
    line.  Marked cells carry neither.
    """

    cell_index: int
    lines: tuple[int, int, int]  # source labels, sorted
    vertex_ids: tuple[int, int, int]
    marked: bool
    exit_vertex: tuple[int, int] | None  # source label pair
    exit_vertex_id: int | None
    witness_line: int | None  # source label


class ProjectiveArrangement:
    """Cell complex of a simple projective line arrangement."""

    def __init__(self, lines: Sequence[DualLine]):
        self.lines = tuple(lines)
        n = len(self.lines)
        if n < 2:
            raise ValueError("an arrangement needs at least 2 lines")
        self._build()

    # -- construction -------------------------------------------------

    def _build(self):
        lines = self.lines
        n = len(lines)
        m = n - 1
        # a common positive scale moves no crossing
        grid, _ = _grid((l.slope, l.intercept) for l in lines)
        a = [s for s, _ in grid]
        b = [t for _, t in grid]
        try:
            order, rank = crossing_orders(a, b)
        except ConcurrentLinesError as err:
            i, j, k = err.labels
            raise ConcurrentLinesError(lines[i].source, lines[j].source,
                                       lines[k].source) from None
        self._order, self._rank = order, rank
        self._slope_key = a

        # vertices, one per line pair, with exact positions
        self.vertices: list[ArrangementVertex] = []
        self.vertex_ids: dict[tuple[int, int], int] = {}
        for i in range(n):
            for j in range(i + 1, n):
                li, lj = lines[i], lines[j]
                v = ArrangementVertex(
                    tuple(sorted((li.source, lj.source))), crossing_position(li, lj))
                self.vertex_ids[(i, j)] = len(self.vertices)
                self.vertices.append(v)

        # edges: per line, m-1 bounded + 1 infinite, directed left to right
        self.edges: list[ProjectiveEdge] = []
        for i in range(n):
            row = order[i]
            for t in range(m - 1):
                self.edges.append(ProjectiveEdge(
                    i, self._vid(i, row[t]), self._vid(i, row[t + 1]), False))
            self.edges.append(ProjectiveEdge(
                i, self._vid(i, row[m - 1]), self._vid(i, row[0]), True))

        faces, face_of, unbounded = self._trace_faces()
        self._assemble_cells(faces, face_of, unbounded)

    def _vid(self, i: int, j: int) -> int:
        return self.vertex_ids[(i, j) if i < j else (j, i)]

    def _edge_id(self, i: int, t: int) -> int:
        return i * (len(self.lines) - 1) + t

    def _next_piece(self, piece: Piece) -> Piece | None:
        """Successor of a directed piece in the interior-on-left walk;
        None when the walk runs off to infinity."""
        order, rank, slope = self._order, self._rank, self._slope_key
        m = len(self.lines) - 1
        i, k, d = piece
        head = k if d > 0 else k - 1
        if head < 0 or head > m - 1:
            return None
        j = order[i][head]
        ci, cj = head, rank[j][i]
        lo, hi = (i, j) if slope[i] < slope[j] else (j, i)
        ccw = ((lo, 1), (hi, 1), (lo, -1), (hi, -1))
        out_line, out_dir = ccw[ccw.index((i, -d)) - 1]
        c = ci if out_line == i else cj
        return (out_line, c + 1 if out_dir > 0 else c, out_dir)

    def _trace_faces(self):
        n = len(self.lines)
        m = n - 1
        faces: list[list[Piece]] = []
        face_of: dict[Piece, int] = {}
        unbounded: list[bool] = []

        def trace(start: Piece) -> None:
            chain = []
            cur: Piece | None = start
            while cur is not None and cur not in face_of:
                face_of[cur] = len(faces)
                chain.append(cur)
                cur = self._next_piece(cur)
            faces.append(chain)

        for i in range(n):
            for entry in ((i, 0, 1), (i, m, -1)):
                if entry not in face_of:
                    trace(entry)
                    unbounded.append(True)
        for i in range(n):
            for k in range(m + 1):
                for d in (1, -1):
                    p = (i, k, d)
                    if p not in face_of:
                        trace(p)
                        unbounded.append(False)
        return faces, face_of, unbounded

    def _assemble_cells(self, faces, face_of, unbounded):
        n = len(self.lines)
        m = n - 1
        boundaries: list[tuple[tuple[int, int], ...]] = []
        cell_of_face: dict[int, int] = {}

        def piece_edge(piece: Piece) -> tuple[int, int]:
            i, k, d = piece
            if not 1 <= k <= m - 1:
                raise AssertionError("ray piece reached bounded conversion")
            return (self._edge_id(i, k - 1), d)

        def glued_boundary(seq: list[Piece]) -> tuple[tuple[int, int], ...]:
            # rotate so ray pairs sit adjacent, then merge each pair into
            # the line's infinity edge
            seq = seq[1:] + seq[:1]
            out = []
            t = 0
            while t < len(seq):
                i, k, d = seq[t]
                if (k == m and d == 1) or (k == 0 and d == -1):
                    ni, nk, nd = seq[t + 1]
                    if ni != i or nd != d:
                        raise AssertionError("antipodal ray pairing broke")
                    out.append((self._edge_id(i, m - 1), d))
                    t += 2
                else:
                    out.append(piece_edge(seq[t]))
                    t += 1
            return tuple(out)

        done = set()
        for f, chain in enumerate(faces):
            if f in done:
                continue
            if not unbounded[f]:
                cell_of_face[f] = len(boundaries)
                boundaries.append(tuple(piece_edge(p) for p in chain))
                done.add(f)
                continue
            i, k, d = chain[-1]
            partner_piece = (i, 0, -1) if (k == m and d == 1) else (i, m, 1)
            g = face_of[partner_piece]
            seq = chain + [(pi, pk, -pd) for pi, pk, pd in reversed(faces[g])]
            cell_of_face[f] = cell_of_face[g] = len(boundaries)
            boundaries.append(glued_boundary(seq))
            done.update((f, g))

        # marked cell, found two ways: by vertical-infinity containment
        # (the face above all lines) and as the unique consistently
        # oriented boundary
        top_line = min(range(n), key=lambda i: self._slope_key[i])
        by_containment = cell_of_face[face_of[(top_line, 0, 1)]]
        consistent = [c for c, bd in enumerate(boundaries)
                      if len({d for _, d in bd}) == 1]
        if consistent != [by_containment]:
            raise GeometryError(
                "marked-cell characterizations disagree: "
                f"containment={by_containment}, consistent={consistent}")

        self.cells = [
            ProjectiveCell(
                index=c,
                boundary=bd,
                side_count=len({self.edges[e].line for e, _ in bd}),
                marked=(c == by_containment),
            )
            for c, bd in enumerate(boundaries)
        ]
        self.marked_cell_index = by_containment

    # -- queries ------------------------------------------------------

    def counts(self) -> tuple[int, int, int]:
        return len(self.vertices), len(self.edges), len(self.cells)

    def line_by_source(self, source: int) -> int:
        for i, l in enumerate(self.lines):
            if l.source == source:
                return i
        raise KeyError(source)

    def cell_lines(self, cell: ProjectiveCell) -> set[int]:
        """Source labels of the lines bounding a cell."""
        return {self.lines[self.edges[e].line].source for e, _ in cell.boundary}


def build_arrangement(lines: Sequence[DualLine]) -> ProjectiveArrangement:
    """Construct the projective cell complex of the given dual lines."""
    return ProjectiveArrangement(lines)


def marked_cell(arr: ProjectiveArrangement) -> int:
    """Index of the cell containing the point at vertical infinity."""
    return arr.marked_cell_index


def marked_cell_by_orientation(arr: ProjectiveArrangement) -> int:
    """Independent recomputation: the unique consistently oriented cell."""
    found = [c.index for c in arr.cells if c.consistently_oriented()]
    if len(found) != 1:
        raise GeometryError(f"expected one consistently oriented cell, got {found}")
    return found[0]


def orient_lines(arr: ProjectiveArrangement) -> dict[int, int]:
    """Direction assignment per source label; +1 is left to right."""
    return {l.source: 1 for l in arr.lines}


def peel_orientation(arr: ProjectiveArrangement, eastward: bool = True) -> dict[int, int]:
    """Orient lines by iteratively traversing the marked cell's boundary.

    At each stage the lines on the boundary of the current marked cell
    are oriented along its (consistent) traversal, then removed; the
    marked cell of the remaining sub-arrangement takes over.  The anchor
    direction propagates through the growing cell, so the result equals
    the left-to-right assignment (globally reversed when ``eastward`` is
    False).
    """
    sign = 1 if eastward else -1
    remaining = list(arr.lines)
    result: dict[int, int] = {}
    while remaining:
        if len(remaining) == 1:
            result[remaining[0].source] = sign
            break
        sub = build_arrangement(remaining)
        mc = sub.cells[sub.marked_cell_index]
        if not mc.consistently_oriented():
            raise GeometryError("marked cell of sub-arrangement not consistent")
        d = mc.boundary[0][1]
        for src in sub.cell_lines(mc):
            result[src] = d * sign
        remaining = [l for l in remaining if l.source not in result]
    return result


def triangular_cells(arr: ProjectiveArrangement) -> list[TriangularCell]:
    """All three-sided cells with exit vertices and witness lines."""
    out = []
    for cell in arr.cells:
        if cell.side_count != 3:
            continue
        if len(cell.boundary) != 3:
            raise GeometryError("three-sided cell with subdivided boundary")
        edges = [arr.edges[e] for e, _ in cell.boundary]
        indeg = {}
        for e in edges:
            indeg.setdefault(e.tail, 0)
            indeg[e.head] = indeg.get(e.head, 0) + 1
        vids = tuple(sorted(indeg))
        lines = tuple(sorted(arr.lines[e.line].source for e in edges))
        if sorted(indeg.values()) == [1, 1, 1]:
            if not cell.marked:
                raise GeometryError("cyclic triangle boundary on unmarked cell")
            out.append(TriangularCell(cell.index, lines, vids, True, None, None, None))
            continue
        if cell.marked:
            raise GeometryError("marked cell has acyclic triangle boundary")
        exit_id = next(v for v, d in indeg.items() if d == 1)
        exit_pair = arr.vertices[exit_id].lines
        witness = next(l for l in lines if l not in exit_pair)
        out.append(TriangularCell(
            cell.index, lines, vids, False, exit_pair, exit_id, witness))
    out.sort(key=lambda t: (t.lines, t.exit_vertex or (-1, -1)))
    return out


def line_triangle_counts(arr: ProjectiveArrangement,
                         tris: Iterable[TriangularCell] | None = None) -> dict[int, int]:
    """Number of triangular cells incident to each line (by source label)."""
    if tris is None:
        tris = triangular_cells(arr)
    counts = {l.source: 0 for l in arr.lines}
    for t in tris:
        for src in t.lines:
            counts[src] += 1
    return counts


def _side(line: DualLine, pos: tuple[Fraction, Fraction]) -> int:
    s = pos[1] - line.y_at(pos[0])
    return (s > 0) - (s < 0)


def crossing_halfplane_has_private_triangle(arr: ProjectiveArrangement,
                                            src_u: int, src_v: int) -> bool:
    """Check, for the halfplane pair (u, v) away from the marked cell:
    if two other lines cross strictly inside it, some triangular cell in
    it touches u but not v.  Returns True when the statement holds
    (vacuously or not).

    The halfplane avoiding the marked cell is the locus where the sides
    with respect to u and v differ; the marked cell sits at vertical
    infinity, above both.
    """
    lu = arr.lines[arr.line_by_source(src_u)]
    lv = arr.lines[arr.line_by_source(src_v)]

    def in_open_h(pos) -> bool:
        return _side(lu, pos) * _side(lv, pos) == -1

    crossing_inside = any(
        in_open_h(v.position) for v in arr.vertices
        if src_u not in v.lines and src_v not in v.lines)
    if not crossing_inside:
        return True
    for t in triangular_cells(arr):
        if src_u not in t.lines or src_v in t.lines:
            continue
        off = next(vid for vid in t.vertex_ids
                   if src_u not in arr.vertices[vid].lines)
        if in_open_h(arr.vertices[off].position):
            return True
    return False
