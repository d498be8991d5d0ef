"""Counting reports, structural checks and randomized search.

Everything here reads the exit graph of the dual scan, or the integer
grid of the point set; all verdicts are computed exactly and reported
per instance rather than assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress
from math import gcd

from .dual import (
    ConcurrentLinesError,
    ExitGraph,
    _dual_coefficients,
    _python_exit_graph,
    _witness_set,
    exit_edges_dual,
)
from .geometry import (
    CollinearTripleError,
    PointSet,
    SizeMismatchError,
    TooFewPointsError,
    certify_general_position,
    convex_hull,
    trusted_point_set,
    turn,
)


@dataclass(frozen=True)
class LineStats:
    """Per-line accounting: t triangles touch the line, h hourglasses are
    sliced by it, and x = t - h/2 is its contribution to the bound."""

    source: int
    t: int
    h: int
    x: Fraction


@dataclass(frozen=True)
class StatsReport:
    n: int
    triangles: int  # all triangular cells, marked included
    triangles_unmarked: int
    hourglass_count: int
    exit_edge_count: int
    per_line: tuple[LineStats, ...]
    lower_bound: Fraction  # (3n - 7) / 5
    upper_bound: Fraction  # n (n - 1) / 3
    sum_x: Fraction
    verdicts: dict[str, bool]

    @property
    def all_bounds_hold(self) -> bool:
        return all(self.verdicts.values())


def stats_report(ps: PointSet) -> StatsReport:
    """Triangle/hourglass accounting of the dual arrangement with the
    counting-bound verdicts evaluated on this instance.

    The exit_graph_stats of the pure-Python scan's exit graph: it never
    loads numpy, at any size.
    """
    if len(ps) < 4:
        raise TooFewPointsError("statistics need at least 4 points")
    return exit_graph_stats(ps, _python_exit_graph(*_dual_coefficients(ps)))


def exit_graph_stats(ps: PointSet, edges: ExitGraph) -> StatsReport:
    """stats_report of a set whose exit graph, from either backend, is
    ``edges``.

    Counts from the graph and the convex hull, and builds no cell: each
    witness w of an exit edge ab is the unmarked cell on the lines a, b
    and w, an edge with two witnesses is an hourglass, and the marked
    cell is triangular iff the hull has three vertices, whose lines
    bound it.  The same numbers as counting the cells of dual_triangles
    and pairing those that share an exit vertex, in O(n) memory past the
    graph.
    """
    n = len(ps)
    if n < 4:
        raise TooFewPointsError("statistics need at least 4 points")
    # one column's list of ints at a time, each freed before the next is
    # built; two[t] tells whether edge t has two witnesses
    t_by_line = [0] * n
    h_by_line = [0] * n
    two = [w >= 0 for w in edges.w1.tolist()]
    for w in compress(edges.w1.tolist(), two):
        t_by_line[w] += 1
    for w in edges.w0.tolist():
        t_by_line[w] += 1
    for column in edges.a, edges.b:
        ends = column.tolist()
        for v in ends:
            t_by_line[v] += 1
        # the two cells of an hourglass both touch and slice its exit
        # vertex's two lines
        for v in compress(ends, two):
            t_by_line[v] += 1
            h_by_line[v] += 1
        del ends
    H = sum(two)
    hull = convex_hull(ps)
    marked = len(hull) == 3
    if marked:
        for src in hull:
            t_by_line[src] += 1
    exit_count = len(edges)
    unmarked = exit_count + H
    T = unmarked + marked

    per_line = tuple(
        LineStats(i, t_by_line[i], h_by_line[i],
                  Fraction(t_by_line[i]) - Fraction(h_by_line[i], 2))
        for i in range(n)
    )
    sum_x = sum((ls.x for ls in per_line), Fraction(0))
    lower = Fraction(3 * n - 7, 5)
    upper = Fraction(n * (n - 1), 3)

    verdicts = {
        "exit_count_ge_lower_bound": exit_count >= -(-(3 * n - 7) // 5),
        "exit_count_le_upper_bound": exit_count <= (n * (n - 1)) // 3,
        "exit_count_is_unmarked_minus_hourglasses": exit_count == unmarked - H,
        "sum_t_is_three_triangles": sum(ls.t for ls in per_line) == 3 * T,
        "sum_h_is_two_hourglasses": sum(ls.h for ls in per_line) == 2 * H,
        "three_t_minus_h_ge_3n_minus_2": 3 * T - H >= 3 * n - 2,
        "triangles_ge_two_hourglasses": T >= 2 * H,
        "every_line_touches_three_triangles": all(ls.t >= 3 for ls in per_line),
    }
    return StatsReport(
        n=n,
        triangles=T,
        triangles_unmarked=unmarked,
        hourglass_count=H,
        exit_edge_count=exit_count,
        per_line=per_line,
        lower_bound=lower,
        upper_bound=upper,
        sum_x=sum_x,
        verdicts=verdicts,
    )


# -- crossings and the outer face of the exit graph ------------------
#
# Both analyses run on ``int_coords``.  The side table holds, for every
# exit edge s = (a, b), the turn of every label against line(a, b): E·n
# exact integer turns, after which a crossing test is two sign lookups.

def _side_table(grid, edges: list[tuple[int, int]]) -> list[list[int]]:
    return [[turn(grid[a], grid[b], p) for p in grid] for a, b in edges]


def _partners(side, edges, s: int, start: int = 0) -> list[int]:
    """Edges t >= start that properly cross edge s.

    Two edges cross iff the endpoints of each lie strictly on opposite
    sides of the other's line.  A shared endpoint reads 0 in the side
    table, so such pairs drop out without a test of their own.  Collinear
    overlap cannot occur: exit_edges_dual has already raised
    ConcurrentLinesError on any collinear triple of labels.
    """
    a, b = edges[s]
    row = side[s]
    return [t for t, (c, d), other in zip(range(start, len(edges)), edges[start:], side[start:])
            if row[c] * row[d] < 0 and other[a] * other[b] < 0]


def exit_graph_crossings(ps: PointSet) -> int:
    """Number of unordered exit-edge pairs that properly cross: O(E·n)
    integer turns plus O(E^2) sign lookups, exact for any coordinates."""
    edges = exit_edges_dual(ps).pairs()
    side = _side_table(ps.int_coords, edges)
    return sum(len(_partners(side, edges, s, s + 1)) for s in range(len(edges)))


def _ccw(d: tuple[int, int], e: tuple[int, int]) -> int:
    """Comparator of directions, counterclockwise from the positive x axis."""
    lower_d = d[1] < 0 or (d[1] == 0 and d[0] < 0)
    lower_e = e[1] < 0 or (e[1] == 0 and e[0] < 0)
    return (lower_d - lower_e) or -turn((0, 0), d, e)


_by_angle = cmp_to_key(_ccw)


class _Subdivision:
    """The exit graph drawn in the plane with its crossings as vertices,
    built lazily along the edges that walks and rays reach.

    Vertices 0..n-1 are the labels; a crossing is a reduced integer
    homogeneous triple (X, Y, W), W > 0, so concurrent crossings merge.
    A dart (v, s, sgn) leaves vertex v along edge s = (a, b), towards b
    (sgn = 1) or towards a (sgn = -1).  Walks keep their face on the left.
    """

    def __init__(self, ps: PointSet, edges: list[tuple[int, int]]):
        self.grid = grid = ps.int_coords
        self.edges = edges
        self.dirs = [(grid[b][0] - grid[a][0], grid[b][1] - grid[a][1]) for a, b in edges]
        self.side = _side_table(grid, edges)
        self.coords = [(x, y, 1) for x, y in grid]
        self.vid = {c: v for v, c in enumerate(self.coords)}
        self.darts_at: list[list[tuple[int, int]]] = [[] for _ in grid]  # (s, sgn)
        for s, (a, b) in enumerate(edges):
            self.darts_at[a].append((s, 1))
            self.darts_at[b].append((s, -1))
        self._chains: dict[int, tuple[list[int], dict[int, int]]] = {}
        self._orders: dict[int, list[tuple[int, int]]] = {}

    def _crossing(self, key: tuple[int, int, int], s: int, t: int) -> int:
        v = self.vid.setdefault(key, len(self.coords))
        if v == len(self.coords):
            self.coords.append(key)
            self.darts_at.append([])
        for u in (s, t):
            if (u, 1) not in self.darts_at[v]:
                self.darts_at[v] += [(u, 1), (u, -1)]
        return v

    def _chain(self, s: int) -> tuple[list[int], dict[int, int]]:
        """Vertices along edge s from a to b, and their positions."""
        if s not in self._chains:
            a, b = self.edges[s]
            xa, ya = self.grid[a]
            d1x, d1y = self.dirs[s]
            splits = []  # (num, den, vertex): the crossing at a + (num/den)·d1
            for t in _partners(self.side, self.edges, s):
                xc, yc = self.grid[self.edges[t][0]]
                d2x, d2y = self.dirs[t]
                den = d1x * d2y - d1y * d2x
                num = (xc - xa) * d2y - (yc - ya) * d2x
                if den < 0:
                    num, den = -num, -den
                X, Y = xa * den + num * d1x, ya * den + num * d1y
                g = gcd(X, Y, den)
                splits.append((num, den, self._crossing((X // g, Y // g, den // g), s, t)))
            # distinct fractions in (0, 1) differ by at least 1/q2, so the
            # floor of num * q2 / den orders them exactly
            q2 = max((den for _, den, _ in splits), default=1) ** 2
            splits.sort(key=lambda sp: sp[0] * q2 // sp[1])
            chain = [a, *dict.fromkeys(v for _, _, v in splits), b]
            self._chains[s] = chain, {v: i for i, v in enumerate(chain)}
        return self._chains[s]

    def _order(self, v: int) -> list[tuple[int, int]]:
        """The darts leaving v, counterclockwise from the positive x axis."""
        if v not in self._orders:
            self._orders[v] = sorted(self.darts_at[v], key=lambda o: _by_angle(
                (o[1] * self.dirs[o[0]][0], o[1] * self.dirs[o[0]][1])))
        return self._orders[v]

    def _walk(self, dart: tuple[int, int, int]) -> set[tuple[int, int, int]]:
        """The darts of the face walk through dart."""
        darts = set()
        while dart not in darts:
            darts.add(dart)
            v, s, sgn = dart
            chain, pos = self._chain(s)
            w = chain[pos[v] + sgn]
            order = self._order(w)
            dart = (w, *order[order.index((s, -sgn)) - 1])
        return darts

    def _east_hit(self, c: int) -> tuple[int, int, int] | None:
        """The dart first hit by the ray east from label c, lifted by an
        infinitesimal, directed upwards (so the ray's origin is on its
        left); None if the ray escapes."""
        x0, y0 = self.grid[c]
        best = None
        for s, (a, b) in enumerate(self.edges):
            up = 1 if self.dirs[s][1] > 0 else -1
            (x1, y1), (x2, y2) = self.grid[a], self.grid[b]
            if up < 0:
                (x1, y1), (x2, y2) = (x2, y2), (x1, y1)
            if not y1 <= y0 < y2 or self.side[s][c] * up <= 0:
                continue
            # x of the edge at y0 is num / den; dx / den orders ties at y0 + eps
            den, dx = y2 - y1, x2 - x1
            num = x1 * den + (y0 - y1) * dx
            if best is None or (num * best[1], dx * best[1]) < (best[0] * den, best[2] * den):
                best = (num, den, dx, s, up)
        if best is None:
            return None
        s, up = best[3:]
        chain = self._chain(s)[0][::up]
        below = sum(self.coords[v][1] <= y0 * self.coords[v][2] for v in chain)
        return (chain[below - 1], s, up)

    def outer_labels(self) -> set[int]:
        """Labels incident to the unbounded face.

        Labels are visited from the lexicographically largest down.  The
        ray east from label c first hits a dart whose edge reaches east of
        c, so if that dart bounds the unbounded face, its walk was traced
        already.  Hence c's east corner lies in the unbounded face iff the
        ray escapes or hits a traced dart; c is then the largest label of
        its component, all its darts point west, and the last of them in
        counterclockwise order starts the walk around that corner.
        """
        outer: set[int] = set()
        darts: set[tuple[int, int, int]] = set()
        for c in sorted(range(len(self.grid)), key=self.grid.__getitem__, reverse=True):
            if c in outer:
                continue
            hit = self._east_hit(c)
            if hit is not None and hit not in darts:
                continue
            outer.add(c)
            if self.darts_at[c]:
                walk = self._walk((c, *self._order(c)[-1]))
                darts |= walk
                outer.update(v for v, _, _ in walk if v < len(self.grid))
        return outer


def outer_face_vertices(ps: PointSet) -> set[int]:
    """Labels of points incident to the unbounded face of the planar
    subdivision induced by the exit graph (crossings subdivide edges).

    Costs the side table, O(E) per label for its ray, and O(E) sign
    lookups for each edge that a ray or the walk around the unbounded
    face reaches; exact for any coordinates.
    """
    return _Subdivision(ps, exit_edges_dual(ps).pairs()).outer_labels()


# -- order types ------------------------------------------------------

def _first_orientation_mismatch(s: PointSet, t: PointSet) -> tuple[int, int, int] | None:
    """The lexicographically first labeled triple i < j < k whose
    orientation differs between s and t, or None."""
    if len(s) != len(t):
        raise SizeMismatchError(f"sizes differ: {len(s)} vs {len(t)}")
    gs, gt = s.int_coords, t.int_coords
    n = len(s)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if turn(gs[i], gs[j], gs[k]) != turn(gt[i], gt[j], gt[k]):
                    return (i, j, k)
    return None


def same_order_type_labeled(s: PointSet, t: PointSet) -> bool:
    """True iff every labeled triple has the same orientation in both sets."""
    return _first_orientation_mismatch(s, t) is None


@dataclass(frozen=True)
class ExitStructureComparison:
    """Labeled comparison of two sets' exit structures and order types."""

    same_exit_structure: bool
    same_order_type: bool
    edges_only_in_first: tuple[tuple[int, int], ...]
    edges_only_in_second: tuple[tuple[int, int], ...]
    witness_mismatches: tuple[tuple[tuple[int, int], frozenset, frozenset], ...]
    first_orientation_mismatch: tuple[int, int, int] | None


def compare_exit_structures(s: PointSet, t: PointSet) -> ExitStructureComparison:
    """Do the labeled exit-edge sets (with witnesses) agree, and do the
    labeled order types agree?  Reports the discrepancies of both kinds."""
    if len(s) != len(t):
        raise SizeMismatchError(f"sizes differ: {len(s)} vs {len(t)}")
    # (w0, w1) columns are equal iff the witness sets are: see ExitGraph
    es, et = ({(a, b): (w0, w1) for a, b, w0, w1 in zip(*exit_edges_dual(ps).columns())}
              for ps in (s, t))
    only_s = tuple(sorted(es.keys() - et.keys()))
    only_t = tuple(sorted(et.keys() - es.keys()))
    wit = tuple(
        (pair, _witness_set(*es[pair]), _witness_set(*et[pair]))
        for pair in sorted(es.keys() & et.keys())
        if es[pair] != et[pair]
    )
    mismatch = _first_orientation_mismatch(s, t)
    return ExitStructureComparison(
        same_exit_structure=not (only_s or only_t or wit),
        same_order_type=mismatch is None,
        edges_only_in_first=only_s,
        edges_only_in_second=only_t,
        witness_mismatches=wit,
        first_orientation_mismatch=mismatch,
    )


# -- randomized search ------------------------------------------------

def _first_accepted(n: int, rng: random.Random, span: int, accept):
    """accept(points) for the first set of n distinct integer points, drawn
    uniformly from [0, span]^2 and sorted, on which accept raises neither
    CollinearTripleError nor ConcurrentLinesError."""
    while True:
        pts: set[tuple[int, int]] = set()
        while len(pts) < n:
            pts.add((rng.randint(0, span), rng.randint(0, span)))
        try:
            return accept(sorted(pts))
        except (CollinearTripleError, ConcurrentLinesError):
            continue


def random_general_position(n: int, rng: random.Random) -> PointSet:
    """A certified set of n integer points drawn uniformly from a square
    of side 4n^2, rejection-sampled until in general position."""
    return _first_accepted(n, rng, 4 * n * n, certify_general_position)


def _scanned(points: list[tuple[int, int]]) -> tuple[PointSet, ExitGraph]:
    ps = trusted_point_set(points)
    return ps, exit_edges_dual(ps)


def search_min_exit_edges(n: int, trials: int, seed: int) -> tuple[PointSet, int]:
    """Seeded random search for point sets with few exit edges.

    Each trial draws the set that random_general_position draws from the
    same rng state.  The exact dual scan certifies it: its crossing
    tables tie iff three points are collinear, and a tie redraws, so no
    separate certification pass runs.  Returns the first set attaining
    the minimum count over the trials; deterministic for a fixed seed.
    """
    if n < 4:
        raise TooFewPointsError("search needs n >= 4")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    best_ps: PointSet | None = None
    best_count: int | None = None
    for _ in range(trials):
        ps, edges = _first_accepted(n, rng, 4 * n * n, _scanned)
        count = len(edges)
        if best_count is None or count < best_count:
            best_ps, best_count = ps, count
    assert best_ps is not None and best_count is not None
    return best_ps, best_count
