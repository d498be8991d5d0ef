"""Point-line duality and the quadratic exit-edge path.

A point (px, py) maps to the dual line y = px*x - py.  In the projective
plane the n dual lines cut out a cell complex; every exit edge of the
primal set corresponds to one or two unmarked triangular cells of that
complex.  This module finds those triangles directly from the per-line
crossing orders in O(n^2) time and O(n^2) memory, without materializing
the full cell complex (see arrangement.py for that).

How triangles are found: along each line, its n-1 crossings are cyclically
ordered (the gap between the last and the first crossing is the arc
through infinity).  Three lines bound a triangular cell iff on each of
them the crossings with the other two are cyclically adjacent and the
number of infinity arcs used is even; an odd count would give a
non-separating curve, which bounds nothing.

The crossing orders are exact: ``crossing_tables`` sorts every line's
crossings on integer keys (``_exact_row``), with no float step;
``fastscan.crossing_tables_np`` pre-sorts on floats and re-sorts each
row it cannot certify with the same ``_exact_row``.

One pure-Python scan, ``_scan_cells``, makes these tests and decides each
cell's exit vertex and witness; ``dual_triangles`` and ``exit_edges_dual``
both consume it, and ``analysis.stats_report`` counts from its groups
(``fastscan.scan_exit_items_np`` is its numpy counterpart for large
inputs).  Three lines have two crossings each, so their four cells
cannot be told apart by adjacency: n = 3 is decided by a closed form
instead, before any scan.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .geometry import GeometryError, PointSet, TooFewPointsError, shear_to_generic
from .oracle import ExitEdge


class NonDistinctSlopesError(GeometryError):
    pass


class ConcurrentLinesError(GeometryError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"lines {i}, {j}, {k} pass through a common point")
        self.labels = (i, j, k)


class TripleSharedExitVertexError(GeometryError):
    pass


@dataclass(frozen=True)
class DualLine:
    """The non-vertical line y = slope*x + intercept, dual to the point
    (slope, -intercept)."""

    slope: Fraction
    intercept: Fraction
    source: int

    def y_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


def dualize(ps: PointSet) -> list[DualLine]:
    """Dual lines of the point set; requires pairwise distinct x."""
    seen: dict[Fraction, int] = {}
    for i, p in enumerate(ps.points):
        if p.x in seen:
            raise NonDistinctSlopesError(
                f"points {seen[p.x]} and {i} share x = {p.x}; shear first")
        seen[p.x] = i
    return [DualLine(p.x, -p.y, i) for i, p in enumerate(ps.points)]


def crossing_position(la: DualLine, lb: DualLine) -> tuple[Fraction, Fraction]:
    """Exact intersection point of two dual lines."""
    x = (lb.intercept - la.intercept) / (la.slope - lb.slope)
    return x, la.y_at(x)


def _scaled_intercepts(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """b * D^2, where D = max(a) - min(a) is the spread of the slopes: the
    intercepts that _exact_row keys on."""
    q = (max(a) - min(a)) ** 2
    return [q * x for x in b]


def _exact_row(a: Sequence[int], qb: Sequence[int], i: int, row: list[int]) -> list[int]:
    """``row`` sorted by the x of each line's crossing with line i, where
    qb is ``_scaled_intercepts(a, b)``.

    Line j crosses line i at x_j = (b[j] - b[i]) / (a[i] - a[j]), with
    0 < |a[i] - a[j]| <= D, so two distinct crossings differ by at least
    1/D^2 and the integer key floor(x_j * D^2) is strictly increasing in
    x_j.  Equal keys are coinciding crossings: raises
    ConcurrentLinesError for the first such pair in the sorted row.
    """
    ai, bi = a[i], qb[i]
    key = dict(zip(row, [(qb[j] - bi) // (ai - a[j]) for j in row]))
    row = sorted(row, key=key.__getitem__)
    if len(set(key.values())) < len(row):
        for j, k in zip(row, row[1:]):
            if key[j] == key[k]:
                raise ConcurrentLinesError(i, *sorted((j, k)))
    return row


def crossing_tables(a: Sequence[int], b: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Per-line crossing orders of the lines y = a[i]*x + b[i].

    Returns (order, rank): order[i] lists the other lines sorted by the x
    of their crossing with line i; rank[i][j] is j's position in order[i].
    Every row is sorted on the exact integer keys of ``_exact_row``.
    """
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 lines")
    seen: dict[int, int] = {}
    for i, ai in enumerate(a):
        if ai in seen:
            raise NonDistinctSlopesError(f"lines {seen[ai]} and {i} have equal slope")
        seen[ai] = i

    qb = _scaled_intercepts(a, b)
    ids = list(range(n))
    order: list[list[int]] = []
    rank: list[list[int]] = []
    for i in range(n):
        row = _exact_row(a, qb, i, ids[:i] + ids[i + 1:])
        ranks = [0] * n
        # ids[pos], not pos: every rank row shares the n int objects of ids
        for pos, j in enumerate(row):
            ranks[j] = ids[pos]
        order.append(row)
        rank.append(ranks)
    return order, rank


@dataclass(frozen=True)
class DualTriangle:
    """A triangular cell of the projective dual arrangement.

    ``unbounded_lines`` names the (zero or two) lines whose arc through
    infinity bounds the cell.  Unmarked cells carry the exit vertex (the
    pair of source labels crossing there) and the witness line.
    """

    lines: tuple[int, int, int]
    vertices: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    unbounded_lines: frozenset[int]
    marked: bool
    exit_vertex: tuple[int, int] | None
    witness_line: int | None


@dataclass(frozen=True)
class Hourglass:
    """Two unmarked triangular cells sharing an exit vertex."""

    cells: tuple[DualTriangle, DualTriangle]
    shared_exit_vertex: tuple[int, int]


# (i, j, k, inf_i, inf_j, inf_k, w): the three lines with i the smallest,
# whether each line bounds the cell by its arc through infinity, and the
# witness line w, or -1 for the marked cell
_Cell = tuple[int, int, int, bool, bool, bool, int]


def _scan_cells(order: list[list[int]], rank: list[list[int]]) -> Iterator[_Cell]:
    """Yield every triangular cell exactly once, from its smallest line i;
    needs at least 4 lines, so m = n - 1 >= 3 crossings per line.

    The cell's arc on line i joins its crossing with j to the next one,
    with k (cyclically: the last gap is the arc through infinity, which
    ``wrap`` marks).  On line j, the difference d of the ranks of i and k
    is +-1 for adjacent crossings, +-(m-1) for the two ends of the
    infinity arc, and anything else for no cell; likewise on line k.
    Directing each arc along its line (left to right, or through infinity
    from the rightmost crossing), the arc on i heads at v_ik, and the arc
    on j heads at v_ij iff i follows k cyclically (d = 1 or 1 - m).  The
    three heads give the in-degrees of the three vertices: a directed
    cycle is the marked cell; otherwise the vertex of in-degree 2 is the
    exit vertex and the third line is the witness.
    """
    n = len(order)
    m1 = n - 2
    for i in range(n):
        row = order[i]
        for idx in range(n - 1):
            j = row[idx]
            if j < i:
                continue
            wrap = idx == m1
            k = row[0] if wrap else row[idx + 1]
            if k < i:
                continue
            rj = rank[j]
            dj = rj[i] - rj[k]
            if dj != 1 and dj != -1 and dj != m1 and dj != -m1:
                continue
            rk = rank[k]
            dk = rk[i] - rk[j]
            if dk != 1 and dk != -1 and dk != m1 and dk != -m1:
                continue
            inf_j = dj == m1 or dj == -m1
            inf_k = dk == m1 or dk == -m1
            if (wrap + inf_j + inf_k) & 1:
                # an odd number of infinity arcs bounds nothing; with four
                # lines or more this never fires, since every other line
                # crosses such a curve, so one of its arcs is not empty
                continue
            hj = dj == 1 or dj == -m1
            hk = dk == 1 or dk == -m1
            if hj:
                w = k if hk else -1
            else:
                w = i if hk else j
            yield i, j, k, wrap, inf_j, inf_k, w


def _dual_coefficients(ps: PointSet) -> tuple[list[int], list[int]]:
    """Slopes and intercepts of the dual lines of the sheared set."""
    sheared, _ = shear_to_generic(ps)
    return [x for x, _ in sheared.int_coords], [-y for _, y in sheared.int_coords]


def _cells(a: list[int], b: list[int]) -> Iterable[_Cell]:
    """Every triangular cell of the lines y = a[i]*x + b[i], n >= 3."""
    if len(a) == 3:
        # three lines cut the projective plane into four triangular cells;
        # with slopes lo < mid < hi, directing the arcs as _scan_cells does
        # marks the cell on the infinity arcs of lo and hi, gives the
        # bounded cell the witness mid, and the cell on the infinity arcs
        # of mid and x the witness x
        _exact_row(a, _scaled_intercepts(a, b), 0, [1, 2])  # raises if concurrent
        lo, mid, hi = sorted(range(3), key=a.__getitem__)
        return [(0, 1, 2, 0 in u, 1 in u, 2 in u, w)
                for u, w in (({lo, hi}, -1), ((), mid), ({mid, hi}, hi), ({lo, mid}, lo))]
    return _scan_cells(*crossing_tables(a, b))


def dual_triangles(ps: PointSet) -> list[DualTriangle]:
    """All triangular cells of the dual arrangement of the point set,
    labeled by primal point indices.  The set is sheared internally."""
    if len(ps) < 3:
        raise TooFewPointsError("dual triangle scan needs at least 3 points")
    tris = []
    for i, j, k, inf_i, inf_j, inf_k, w in _cells(*_dual_coefficients(ps)):
        lines = (i, j, k) if j < k else (i, k, j)
        _, y, z = lines
        vertices = ((i, y), (i, z), (y, z))
        unbounded = frozenset(compress((i, j, k), (inf_i, inf_j, inf_k)))
        if w < 0:
            tris.append(DualTriangle(lines, vertices, unbounded, True, None, None))
        else:
            # the vertex without w; vertices[2 - p] omits lines[p]
            exit_vertex = vertices[2 - lines.index(w)]
            tris.append(DualTriangle(lines, vertices, unbounded, False, exit_vertex, w))
    tris.sort(key=lambda t: (t.lines, sorted(t.unbounded_lines)))
    return tris


def hourglasses(tris: Sequence[DualTriangle]) -> list[Hourglass]:
    """Pair up unmarked triangles sharing an exit vertex."""
    groups: dict[tuple[int, int], list[DualTriangle]] = {}
    for t in tris:
        if not t.marked:
            groups.setdefault(t.exit_vertex, []).append(t)
    out = []
    for vertex, cells in sorted(groups.items()):
        if len(cells) > 2:
            raise TripleSharedExitVertexError(
                f"{len(cells)} triangles share exit vertex {vertex}")
        if len(cells) == 2:
            out.append(Hourglass((cells[0], cells[1]), vertex))
    return out


class ExitGraph(Sequence[ExitEdge]):
    """The exit edges of a point set, held as four integer columns.

    Edge t has the endpoints a[t] < b[t] and the witnesses w0[t] < w1[t],
    or the one witness w0[t] with w1[t] = -1; the edges are sorted by
    (a, b).  The columns are numpy arrays when the numpy scan ran and
    ``array.array`` otherwise.  As a sequence it yields ``ExitEdge``s,
    each built when it is asked for, and it compares equal to another
    ExitGraph or to a tuple of ExitEdges with the same edges in the same
    order.  Slices are tuples of ExitEdges.
    """

    __slots__ = ("a", "b", "w0", "w1")

    def __init__(self, a, b, w0, w1):
        self.a, self.b, self.w0, self.w1 = a, b, w0, w1

    def columns(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The four columns as lists of Python ints."""
        return self.a.tolist(), self.b.tolist(), self.w0.tolist(), self.w1.tolist()

    def pairs(self) -> list[tuple[int, int]]:
        """The endpoint pairs (a, b), in order."""
        return list(zip(self.a.tolist(), self.b.tolist()))

    def __len__(self) -> int:
        return len(self.a)

    def __getitem__(self, index: int | slice) -> ExitEdge | tuple[ExitEdge, ...]:
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(*index.indices(len(self)))))
        t = operator.index(index)
        return _edge(int(self.a[t]), int(self.b[t]), int(self.w0[t]), int(self.w1[t]))

    def __iter__(self) -> Iterator[ExitEdge]:
        return map(_edge, *self.columns())

    def __eq__(self, other) -> bool:
        if isinstance(other, ExitGraph):
            return self.columns() == other.columns()
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"ExitGraph({list(self)!r})"


def _witness_set(w0: int, w1: int) -> frozenset[int]:
    return frozenset((w0,) if w1 < 0 else (w0, w1))


def _edge(a: int, b: int, w0: int, w1: int) -> ExitEdge:
    return ExitEdge((a, b), _witness_set(w0, w1))


def _triple_witness_error(count: int, key: int, n: int) -> TripleSharedExitVertexError:
    return TripleSharedExitVertexError(f"{count} witnesses for exit vertex {divmod(key, n)}")


def _exit_graph_from_groups(groups: dict[int, int | list[int]], n: int) -> ExitGraph:
    """The exit graph of the pure-Python scan's groups: exit vertex
    key = a*n + b has the witness groups[key], or the list groups[key]
    if it has several."""
    cols = array("q"), array("q"), array("q"), array("q")
    put_a, put_b, put_w0, put_w1 = (c.append for c in cols)
    for key in sorted(groups):
        ws = groups[key]
        if type(ws) is int:
            w0, w1 = ws, -1
        elif len(ws) == 2:
            w0, w1 = sorted(ws)
        else:
            raise _triple_witness_error(len(ws), key, n)
        a, b = divmod(key, n)
        put_a(a)
        put_b(b)
        put_w0(w0)
        put_w1(w1)
    return ExitGraph(*cols)


def _group_cells(a: list[int], b: list[int]) -> tuple[dict[int, int | list[int]],
                                                      list[tuple[int, int, int]]]:
    """The witnesses of each exit vertex key = a*n + b (a < b) over the
    unmarked cells of the pure-Python scan: an int for one witness, a
    list for several.  Also returns the lines of the marked triangular
    cells (at most one): the groups and these name every cell's lines."""
    n = len(a)
    groups: dict[int, int | list[int]] = {}
    marked = []
    for i, j, k, _, _, _, w in _cells(a, b):
        if w < 0:
            marked.append((i, j, k))
        else:
            key = (j * n + k if j < k else k * n + j) if w == i else i * n + j + k - w
            ws = groups.get(key)
            if ws is None:
                groups[key] = w
            elif type(ws) is int:
                groups[key] = [ws, w]
            else:
                ws.append(w)
    return groups, marked


# below this size the vectorized path is not worth its setup cost (and
# loading numpy alone adds about 12 MiB to the process)
_VECTOR_THRESHOLD = 64


def _exit_edges_vectorized(a: list[int], b: list[int], n: int) -> ExitGraph:
    from . import fastscan

    order, rank = fastscan.crossing_tables_np(a, b)
    keys, wits = fastscan.scan_exit_items_np(order, rank)
    return fastscan.exit_graph_np(*fastscan.group_exit_items_np(keys, wits), n)


def exit_edges_dual(ps: PointSet) -> ExitGraph:
    """Exit edges via the dual arrangement: one unmarked triangle per
    (edge, witness) pair; hourglasses merge into two-witness edges.

    Returns an ExitGraph whose columns come straight from the scan: numpy
    arrays from 64 points on (while the sheared coordinates stay within
    ``fastscan.MAX_SAFE_COORD``), ``array.array`` from the pure-Python
    scan otherwise, so smaller calls never load numpy.  No ExitEdge is
    built until one is asked for.  Raises TripleSharedExitVertexError if
    an exit vertex gathers three witnesses, which general position rules
    out.
    """
    n = len(ps)
    if n < 3:
        raise TooFewPointsError("exit edges need at least 3 points")
    a, b = _dual_coefficients(ps)
    if n >= _VECTOR_THRESHOLD:
        from . import fastscan  # here, so that small inputs never load numpy

        if fastscan.coords_are_safe(a, b):
            return _exit_edges_vectorized(a, b, n)
    return _exit_graph_from_groups(_group_cells(a, b)[0], n)
