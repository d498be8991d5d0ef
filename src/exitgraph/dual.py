"""Point-line duality and the quadratic exit-edge path.

A point (px, py) maps to the dual line y = px*x - py.  In the projective
plane the n dual lines cut out a cell complex; every exit edge of the
primal set corresponds to one or two unmarked triangular cells of that
complex.  This module finds those triangles directly from the per-line
crossing orders in O(n^2) time and O(n^2) memory, without materializing
the full cell complex.

How triangles are found: along each line, its n-1 crossings are cyclically
ordered (the gap between the last and the first crossing is the arc
through infinity).  From four lines on, three lines bound a triangular
cell iff on each of them the crossings with the other two are
cyclically adjacent.  The three arcs between those crossings then hold
no other crossing, and a one-sided closed curve meets every line, so
the curve they form is two-sided: it bounds the cell.

The crossing orders are exact, and both backends sort a row by one
rule.  The key of crossing j on line i is its x = (b[j] - b[i]) /
(a[i] - a[j]), rounded correctly to a float: Python's int / int rounds
so for integers of any size, and numpy's float64 quotient does when
both differences are exact, which ``MAX_SAFE_COORD`` ensures.  Rounding
to nearest is monotone, x < x' gives key <= key', so keys that are
pairwise distinct are in the exact order.  Only a row with a repeated
key, or with a key past the float range, is sorted by ``_exact_row``
on exact integer keys.  Coinciding crossings have equal x and so equal
keys: concurrent lines always reach ``_exact_row``, which names them.
The numpy table sorts first on packed integer keys, coarser than the
float keys, and falls back to the float keys of a row where two packed
keys tie, so only a repeated float key sends a row to ``_exact_row``
there too: both backends re-sort the same rows exactly.

Both backends keep the orders in one format, the n x n successor table
of ``crossing_tables`` (``fastscan.successor_table_np`` builds the same
table as an int32 array): nxt[i][j] is the crossing that follows j on
line i, cyclically, so whether two crossings are adjacent, and which way
the arc between them runs, are lookups in it.

Both scans, ``_scan_cells`` here and ``fastscan.scan_codes_np``, make
these lookups over the pairs j > i of each line i and write one integer
code (a*n + b)*n + w per unmarked cell: its exit vertex a < b and its
witness line w.  ``_exit_graph``, like ``fastscan.exit_graph_np``, sorts
the codes once and reads each vertex's witnesses from adjacent entries,
and every other view reads the ``ExitGraph`` it builds: the exit edge ab
with the witness w is the unmarked cell on the lines a, b and w, and the
marked cell, at vertical infinity, is bounded by the duals of the convex
hull's vertices.  ``exit_edges_dual`` returns the graph,
``_unmarked_cells`` lists its cells, which ``dual_triangles`` (with the
hull) and the dual SVG both read, and ``analysis.exit_graph_stats``
counts them.  Three lines have two crossings each, so their four cells
cannot be told apart by adjacency: n = 3 is decided by a closed form
instead, before any scan.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

from .geometry import (ExitEdge, GeometryError, PointSet, TooFewPointsError, convex_hull,
                       shear_to_generic)


class NonDistinctSlopesError(GeometryError):
    pass


class ConcurrentLinesError(GeometryError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"lines {i}, {j}, {k} pass through a common point")
        self.labels = (i, j, k)


class TripleSharedExitVertexError(GeometryError):
    pass


def _scaled_intercepts(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """b * D^2, where D = max(a) - min(a) is the spread of the slopes: the
    intercepts that _exact_row keys on."""
    q = (max(a) - min(a)) ** 2
    return [q * x for x in b]


def _exact_row(a: Sequence[int], qb: Sequence[int], i: int, row: list[int]) -> list[int]:
    """``row`` sorted by the x of each line's crossing with line i, where
    qb is ``_scaled_intercepts(a, b)``: the exact sort of a row whose
    float keys repeat or overflow, in both backends.

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


def _rounded_row(a: Sequence[int], b: Sequence[int], i: int, ids: list[int]) -> list[int] | None:
    """The other lines sorted by their crossing's correctly rounded float
    key on line i, Python's (b[j] - b[i]) / (a[i] - a[j]); None when two
    keys are equal or one overflows.  ids is range(n) as a list."""
    ai, bi = a[i], b[i]
    try:
        key = [(bj - bi) / (ai - aj) for aj, bj in zip(a[:i], b[:i])]
        key.append(math.inf)  # line i itself, which sorts last and is dropped
        key += [(bj - bi) / (ai - aj) for aj, bj in zip(a[i + 1:], b[i + 1:])]
    except OverflowError:
        return None
    row = sorted(ids, key=key.__getitem__)
    row.pop()
    x = list(map(key.__getitem__, row))
    return None if any(map(operator.eq, x, x[1:])) else row


def _sorted_rows(a: Sequence[int], b: Sequence[int]) -> Iterator[list[int]]:
    """Each line's crossings, line by line, sorted by x; refuses two
    lines of equal slope before the first row.

    A row is sorted on its correctly rounded float keys, and by
    ``_exact_row`` only when two of them are equal or one overflows (see
    the module docstring).
    """
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 lines")
    seen: dict[int, int] = {}
    for i, ai in enumerate(a):
        if seen.setdefault(ai, i) != i:
            raise NonDistinctSlopesError(f"lines {seen[ai]} and {i} have equal slope")
    qb = None
    ids = list(range(n))
    for i in range(n):
        row = _rounded_row(a, b, i, ids)
        if row is None:
            if qb is None:
                qb = _scaled_intercepts(a, b)
            row = _exact_row(a, qb, i, ids[:i] + ids[i + 1:])
        yield row


def crossing_tables(a: Sequence[int], b: Sequence[int]) -> list[list[int]]:
    """The successor table of the lines y = a[i]*x + b[i].

    nxt[i][j] is the line whose crossing follows j's on line i in the
    order of x, cyclically: the rightmost crossing is followed by the
    leftmost, through infinity.  nxt[i][i] = -1.  Every row is in the
    exact order of x: sorted on correctly rounded float keys, and by
    ``_exact_row`` where two of them tie or one overflows.
    """
    n = len(a)
    nxt: list[list[int]] = []
    for row in _sorted_rows(a, b):
        succ = [-1] * n
        for j, k in zip(row, row[1:] + row[:1]):
            succ[j] = k
        nxt.append(succ)
    return nxt


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


def _scan_cells(nxt: list[list[int]]) -> list[int]:
    """The code (a*n + b)*n + w of every unmarked triangular cell, each
    found once, from its smallest line i: the exit vertex a < b and the
    witness line w, as fastscan.scan_codes_np finds them.  Needs at
    least 4 lines, so m = n - 1 >= 3 crossings per line.

    The cell's arc on line i joins its crossing with j to the next one,
    with k = nxt[i][j] (cyclically: the last gap is the arc through
    infinity).  Lines i and k are adjacent on line j iff one follows the
    other there: nxt[j][k] == i or nxt[j][i] == k; likewise on line k.
    Directing each arc along its line (left to right, or through
    infinity from the rightmost crossing), the arc on i heads at v_ik,
    and the arc on j heads at v_ij iff i follows k (nxt[j][k] == i).  The
    three heads give the in-degrees of the three vertices: a directed
    cycle is the marked cell; otherwise the vertex of in-degree 2 is the
    exit vertex and the third line is the witness.
    """
    n = len(nxt)
    codes: list[int] = []
    put = codes.append
    for i, ni in enumerate(nxt):
        for j, k in enumerate(ni[i + 1:], i + 1):
            if k < i:
                continue
            nj = nxt[j]
            hj = nj[k] == i
            if not hj and nj[i] != k:
                continue
            nk = nxt[k]
            hk = nk[j] == i
            if not hk and nk[i] != j:
                continue
            # three empty arcs bound a cell: an odd number of infinity arcs
            # would make a one-sided curve, which every fourth line crosses
            if hj:
                if hk:
                    put((i * n + j) * n + k)
            elif hk:
                put((j * n + k if j < k else k * n + j) * n + i)
            else:
                put((i * n + k) * n + j)
    return codes


def _dual_coefficients(ps: PointSet) -> tuple[list[int], list[int]]:
    """Slopes and intercepts of the dual lines of the sheared set."""
    sheared, _ = shear_to_generic(ps)
    return [x for x, _ in sheared.int_coords], [-y for _, y in sheared.int_coords]


def _exit_codes(a: list[int], b: list[int]) -> list[int]:
    """The code (a*n + b)*n + w of every unmarked triangular cell of the
    lines y = a[i]*x + b[i], n >= 3."""
    if len(a) == 3:
        # three lines cut the projective plane into four triangular cells:
        # the marked one, and one cell per witness line, on the vertex
        # where the other two lines cross
        _exact_row(a, _scaled_intercepts(a, b), 0, [1, 2])  # raises if concurrent
        return [5, 7, 15]  # {0,1} with the witness 2, {0,2} with 1, {1,2} with 0
    # nested: the successor table lives only as the scan's argument
    return _scan_cells(crossing_tables(a, b))


def _infinity_arcs(slope: Sequence[int], a: int, b: int, w: int) -> tuple[int, ...]:
    """The two lines, ascending, whose arcs through infinity bound the
    unmarked cell of the exit vertex (a, b) and the witness w, or () if
    that cell is bounded."""
    # with slopes lo < mid < hi, directing the arcs as _scan_cells does
    # puts the marked cell on the infinity arcs of lo and hi, makes the
    # cell with the witness mid bounded, and puts the cell with the
    # witness lo or hi on the infinity arcs of mid and the witness
    sa, sb, sw = slope[a], slope[b], slope[w]
    if (sw - sa) * (sw - sb) < 0:
        return ()
    mid = a if (sa > sb) == (sw > sa) else b
    return (mid, w) if mid < w else (w, mid)


def _unmarked_cells(a: list[int], b: list[int]) -> list[tuple]:
    """Every unmarked cell of the lines y = a[i]*x + b[i], n >= 3, as
    (lines, unbounded, exit vertex), sorted: the three lines ascending,
    the two lines whose arcs through infinity bound the cell or (), and
    the exit vertex (p, q), p < q.  Read from the exit graph of the
    pure-Python scan: each witness w of the exit edge pq is the cell on
    the lines p, q and w."""
    cells = []
    for p, q, w0, w1 in zip(*_python_exit_graph(a, b).columns()):
        for w in (w0,) if w1 < 0 else (w0, w1):
            lines = (w, p, q) if w < p else (p, w, q) if w < q else (p, q, w)
            cells.append((lines, _infinity_arcs(a, p, q, w), (p, q)))
    cells.sort()
    return cells


def dual_triangles(ps: PointSet) -> list[DualTriangle]:
    """All triangular cells of the dual arrangement of the point set,
    labeled by primal point indices.  The set is sheared internally.

    The unmarked cells are those of ``_unmarked_cells``.  The marked
    cell, at vertical infinity, is bounded by the duals of the convex
    hull's vertices, so it is triangular iff the hull has three, and lies
    on the infinity arcs of the lines of least and greatest slope.
    """
    if len(ps) < 3:
        raise TooFewPointsError("dual triangle scan needs at least 3 points")
    a, b = _dual_coefficients(ps)
    cells = [(lines, unbounded, v, sum(lines) - sum(v))
             for lines, unbounded, v in _unmarked_cells(a, b)]
    hull = convex_hull(ps)
    if len(hull) == 3:
        lo, _, hi = sorted(hull, key=a.__getitem__)
        cells.append((tuple(sorted(hull)), (lo, hi), None, None))
        cells.sort(key=lambda cell: (cell[0], sorted(cell[1])))
    return [DualTriangle(lines, ((i, j), (i, k), (j, k)), frozenset(unbounded), w is None, v, w)
            for lines, unbounded, v, w in cells for i, j, k in [lines]]


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


def _triple_witness_error(key: int, n: int) -> TripleSharedExitVertexError:
    return TripleSharedExitVertexError(f"more than two witnesses for exit vertex {divmod(key, n)}")


def _exit_graph(codes: list[int], n: int) -> ExitGraph:
    """The exit graph of the pure-Python scan's codes (a*n + b)*n + w, one
    per unmarked cell: its exit vertex a < b and witness line w.

    Sorts ``codes`` in place, once, as fastscan.exit_graph_np sorts the
    numpy scan's: each vertex's witnesses are then adjacent entries,
    ascending, so a second witness is the next entry and a third raises.
    """
    codes.sort()
    a, b, w0, w1 = cols = array("q"), array("q"), array("q"), array("q")
    last = -1
    for code in codes:
        key, w = divmod(code, n)
        if key != last:
            last = key
            a.append(key // n)
            b.append(key % n)
            w0.append(w)
            w1.append(-1)
        elif w1[-1] < 0:
            w1[-1] = w
        else:
            raise _triple_witness_error(key, n)
    return ExitGraph(*cols)


def _python_exit_graph(a: list[int], b: list[int]) -> ExitGraph:
    """The exit graph of the lines y = a[i]*x + b[i], n >= 3, from the
    pure-Python tables and scan, which never load numpy."""
    return _exit_graph(_exit_codes(a, b), len(a))


# below this size the vectorized path is not worth its setup cost (and
# loading numpy alone adds about 12 MiB to the process)
_VECTOR_THRESHOLD = 64

# |a|, |b| <= 2^29 makes every difference of two of them, at most 2^30
# in magnitude, an exact float64, so each key of the numpy tables is the
# correctly rounded quotient of two exact integers; any bound up to 2^52
# would do, and this one keeps which sets take the numpy path unchanged
MAX_SAFE_COORD = 1 << 29


def coords_are_safe(a: Sequence[int], b: Sequence[int]) -> bool:
    """Whether the numpy tables can take the lines y = a[i]*x + b[i]."""
    return (max(map(abs, a), default=0) <= MAX_SAFE_COORD
            and max(map(abs, b), default=0) <= MAX_SAFE_COORD)


def _exit_edges_vectorized(a: list[int], b: list[int], n: int) -> ExitGraph:
    from . import fastscan

    # nested calls: the n x n successor table lives only as the scan's
    # argument, so it is freed before the grouping allocates
    return fastscan.exit_graph_np(fastscan.scan_codes_np(fastscan.successor_table_np(a, b)), n)


def exit_edges_dual(ps: PointSet) -> ExitGraph:
    """Exit edges via the dual arrangement: one unmarked triangle per
    (edge, witness) pair; hourglasses merge into two-witness edges.

    Returns an ExitGraph whose columns come straight from the scan's
    codes: numpy arrays from 64 points on while the sheared coordinates
    stay within ``MAX_SAFE_COORD``, grouped by
    ``fastscan.exit_graph_np`` with one sort, and ``array.array`` from
    the pure-Python scan otherwise, grouped by ``_exit_graph``, so
    smaller calls, and calls past the bound, never load numpy.  No
    ExitEdge is built until one is asked for.  Raises
    TripleSharedExitVertexError if an exit vertex gathers three
    witnesses, which general position rules out.
    """
    n = len(ps)
    if n < 3:
        raise TooFewPointsError("exit edges need at least 3 points")
    a, b = _dual_coefficients(ps)
    if n >= _VECTOR_THRESHOLD and coords_are_safe(a, b):
        return _exit_edges_vectorized(a, b, n)
    return _python_exit_graph(a, b)
