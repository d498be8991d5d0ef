"""Primal-side exit-edge oracles.

Two independent reference computations of the exit-edge set:

* the double-wedge definition, applied triple by triple (O(n^4)), and
* the empty-quadrilateral characterization on 4-holes, each hole built
  as two empty triangles glued along a shared edge, and each empty
  triangle read from bit masks of the points left of its sides.

Both are deliberately simple; they serve as ground truth for the
quadratic dual-arrangement path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .geometry import ExitEdge, GeometryError, PointSet, TooFewPointsError, convex_hull


class LabelOutOfRangeError(GeometryError):
    pass


class NonDistinctLabelsError(GeometryError):
    pass


@dataclass(frozen=True)
class FourHole:
    """An empty simple quadrilateral, vertices in counterclockwise order."""

    vertices: tuple[int, int, int, int]
    convex: bool
    reflex_vertex: int | None

    def directed_sides(self) -> list[tuple[int, int]]:
        v = self.vertices
        return [(v[i], v[(i + 1) % 4]) for i in range(4)]


def _check_labels(ps: PointSet, labels: tuple[int, ...]):
    n = len(ps)
    for lab in labels:
        if not 0 <= lab < n:
            raise LabelOutOfRangeError(f"label {lab} outside 0..{n - 1}")
    if len(set(labels)) != len(labels):
        raise NonDistinctLabelsError(f"labels {labels} are not pairwise distinct")


def is_exit_edge_with_witness(ps: PointSet, a: int, b: int, c: int) -> bool:
    """Double-wedge test: no point of S sees the segment ab shielded from c.

    True iff for every other p, neither line(a, p) separates b from c nor
    line(b, p) separates a from c.
    """
    _check_labels(ps, (a, b, c))
    grid = ps.int_coords
    (xa, ya), (xb, yb), (xc, yc) = grid[a], grid[b], grid[c]
    for p in range(len(grid)):
        if p == a or p == b or p == c:
            continue
        xp, yp = grid[p]
        # line through a and p against {b, c}
        dx, dy = xp - xa, yp - ya
        sb = dx * (yb - ya) - dy * (xb - xa)
        sc = dx * (yc - ya) - dy * (xc - xa)
        if (sb > 0 > sc) or (sb < 0 < sc):
            return False
        # line through b and p against {a, c}
        dx, dy = xp - xb, yp - yb
        sa = dx * (ya - yb) - dy * (xa - xb)
        sc = dx * (yc - yb) - dy * (xc - xb)
        if (sa > 0 > sc) or (sa < 0 < sc):
            return False
    return True


def exit_edges_bruteforce(ps: PointSet) -> tuple[ExitEdge, ...]:
    """All exit edges with their witness sets, by exhausting Definition
    triples.  Deterministic: sorted by endpoint pair."""
    n = len(ps)
    if n < 3:
        raise TooFewPointsError("exit edges need at least 3 points")
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            witnesses = [
                c for c in range(n)
                if c != a and c != b and is_exit_edge_with_witness(ps, a, b, c)
            ]
            if witnesses:
                edges.append(ExitEdge((a, b), frozenset(witnesses)))
    return tuple(edges)


def witness_side(ps: PointSet, a: int, b: int, c: int) -> int:
    """+1 if witness c lies left of the directed edge a->b, -1 if right."""
    _check_labels(ps, (a, b, c))
    (xa, ya), (xb, yb), (xc, yc) = (ps.int_coords[i] for i in (a, b, c))
    s = (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)
    if s == 0:
        raise NonDistinctLabelsError("witness collinear with endpoints")
    return 1 if s > 0 else -1


def _empty_triangles(ps: PointSet) -> set[tuple[int, int, int]]:
    """Triples i < j < k whose triangle has no other point strictly inside.

    Bit p of left[i][j] is set iff p lies strictly left of i->j; a point
    is inside a counterclockwise triangle iff it lies left of all three
    of its sides.
    """
    grid = ps.int_coords
    n = len(grid)
    left = [[0] * n for _ in range(n)]
    for i in range(n):
        xi, yi = grid[i]
        for j in range(n):
            dx, dy = grid[j][0] - xi, grid[j][1] - yi
            for p in range(n):
                xp, yp = grid[p]
                if dx * (yp - yi) - dy * (xp - xi) > 0:
                    left[i][j] |= 1 << p
    empty = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if left[i][j] >> k & 1:  # (i, j, k) is counterclockwise
                    inside = left[i][j] & left[j][k] & left[k][i]
                else:
                    inside = left[i][k] & left[k][j] & left[j][i]
                if not inside:
                    empty.add((i, j, k))
    return empty


def enumerate_four_holes(ps: PointSet) -> list[FourHole]:
    """Every 4-hole of the point set, each reported once (counterclockwise,
    rotated to start at its smallest label).

    A 4-cycle is a simple empty quadrilateral iff one of its diagonals
    splits it into two empty triangles with the other two vertices on
    opposite sides.  So the holes are the empty triangles glued in pairs
    along a shared edge d0d1: apex u right of d0->d1 and apex v left of
    it give the counterclockwise hole (d0, u, d1, v).  A convex hole is
    glued along both of its diagonals, a non-convex one only along the
    diagonal at its reflex vertex.
    """
    grid = ps.int_coords

    def turn(i, j, k):
        (xi, yi), (xj, yj), (xk, yk) = grid[i], grid[j], grid[k]
        return (xj - xi) * (yk - yi) - (yj - yi) * (xk - xi)

    apexes: dict[tuple[int, int], list[int]] = {}
    for i, j, k in _empty_triangles(ps):
        for d0, d1, apex in ((i, j, k), (i, k, j), (j, k, i)):
            apexes.setdefault((d0, d1), []).append(apex)
    holes: dict[tuple[int, int, int, int], FourHole] = {}
    for (d0, d1), tops in apexes.items():
        right = [u for u in tops if turn(d0, d1, u) < 0]
        left = [v for v in tops if turn(d0, d1, v) > 0]
        for u in right:
            for v in left:
                cycle = (d0, u, d1, v)
                reflex = [cycle[t] for t in range(4)
                          if turn(cycle[t - 1], cycle[t], cycle[(t + 1) % 4]) < 0]
                start = cycle.index(min(cycle))
                verts = cycle[start:] + cycle[:start]
                holes[verts] = FourHole(verts, convex=not reflex,
                                        reflex_vertex=reflex[0] if reflex else None)
    return [holes[v] for v in sorted(holes)]


@lru_cache(maxsize=1)
def _holes_by_side(ps: PointSet) -> dict[tuple[int, int], list[FourHole]]:
    """The 4-holes of the set indexed by each side (u, v), u < v, in the
    order of enumerate_four_holes.  The index of the last set asked for
    is kept, so that diagnostics run edge by edge on one set enumerate
    its holes once."""
    index: dict[tuple[int, int], list[FourHole]] = {}
    for h in enumerate_four_holes(ps):
        for u, v in h.directed_sides():
            index.setdefault((u, v) if u < v else (v, u), []).append(h)
    return index


def four_holes_at_edge(ps: PointSet, a: int, b: int) -> list[FourHole]:
    """All 4-holes having segment ab as a side."""
    _check_labels(ps, (a, b))
    return list(_holes_by_side(ps).get((a, b) if a < b else (b, a), ()))


def _hull_edge_set(ps: PointSet) -> set[tuple[int, int]]:
    hull = convex_hull(ps)
    return {
        tuple(sorted((hull[i], hull[(i + 1) % len(hull)])))
        for i in range(len(hull))
    }


def exit_edges_via_holes(ps: PointSet) -> frozenset[tuple[int, int]]:
    """Endpoint pairs of exit edges via the 4-hole characterization.

    A pair is *not* an exit edge iff: extremal case, it is a side of some
    convex 4-hole; internal case, there are 4-holes on both of its sides
    whose reflex angles (if any) touch the pair.  Witnesses are not
    produced by this method.
    """
    n = len(ps)
    if n < 3:
        raise TooFewPointsError("exit edges need at least 3 points")
    hull_edges = _hull_edge_set(ps)
    holes = enumerate_four_holes(ps)

    convex_sides: set[tuple[int, int]] = set()
    good_directed: set[tuple[int, int]] = set()
    for h in holes:
        for (u, v) in h.directed_sides():
            if h.convex:
                convex_sides.add((u, v) if u < v else (v, u))
                good_directed.add((u, v))
            elif h.reflex_vertex in (u, v):
                good_directed.add((u, v))

    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) in hull_edges:
                excluded = (a, b) in convex_sides
            else:
                excluded = (a, b) in good_directed and (b, a) in good_directed
            if not excluded:
                pairs.append((a, b))
    return frozenset(pairs)


def internal_edge_has_two_sided_support(ps: PointSet, edge: ExitEdge) -> bool:
    """Diagnostic for an internal exit edge: it has a witness on each side,
    or it is incident to a 4-hole on at least one side."""
    if edge.endpoints in _hull_edge_set(ps):
        raise ValueError("diagnostic applies to internal edges only")
    sides = {witness_side(ps, *edge.endpoints, c) for c in edge.witnesses}
    return sides == {-1, 1} or edge.endpoints in _holes_by_side(ps)
