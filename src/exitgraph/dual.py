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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterator, Sequence

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


def crossing_tables(a: Sequence[int], b: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Per-line crossing orders of the lines y = a[i]*x + b[i].

    Returns (order, rank): order[i] lists the other lines sorted by the x
    of their crossing with line i; rank[i][j] is j's position in order[i].
    Rows are pre-sorted on float keys for speed, then every adjacent pair
    is certified by an exact integer sign test; a row that fails
    certification is re-sorted with exact comparisons.  The returned
    order is therefore exact.
    """
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 lines")
    seen: dict[int, int] = {}
    for i, ai in enumerate(a):
        if ai in seen:
            raise NonDistinctSlopesError(f"lines {seen[ai]} and {i} have equal slope")
        seen[ai] = i

    ids = list(range(n))
    order: list[list[int]] = []
    rank: list[list[int]] = []
    for i in range(n):
        ai = a[i]
        bi = b[i]
        row = ids[:i] + ids[i + 1:]

        def exact_cmp(j: int, k: int) -> int:
            d1 = ai - a[j]
            d2 = ai - a[k]
            s = (b[j] - bi) * d2 - (b[k] - bi) * d1
            if d1 < 0:
                s = -s
            if d2 < 0:
                s = -s
            return (s > 0) - (s < 0)

        try:
            row.sort(key=lambda j: (b[j] - bi) / (ai - a[j]))
        except OverflowError:
            row.sort(key=cmp_to_key(exact_cmp))
        # certify the order: an unsorted row always has an adjacent inversion
        prev = row[0]
        dp = ai - a[prev]
        np_ = b[prev] - bi
        resort = False
        for t in range(1, n - 1):
            cur = row[t]
            dc = ai - a[cur]
            nc = b[cur] - bi
            s = np_ * dc - nc * dp
            if dp < 0:
                s = -s
            if dc < 0:
                s = -s
            if s >= 0:
                if s == 0:
                    raise ConcurrentLinesError(i, *sorted((prev, cur)))
                resort = True
                break
            prev, dp, np_ = cur, dc, nc
        if resort:
            row.sort(key=cmp_to_key(exact_cmp))
            for t in range(len(row) - 1):
                if exact_cmp(row[t], row[t + 1]) == 0:
                    raise ConcurrentLinesError(i, *sorted((row[t], row[t + 1])))
        ranks = [0] * n
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
    slicing_lines: tuple[int, int]


def _directed_arcs(rank: list[list[int]], m: int, i: int, j: int, k: int,
                   inf_i: bool, inf_j: bool, inf_k: bool):
    """The three boundary arcs directed along their lines.

    Bounded arcs run left to right; the infinity arc runs from the
    rightmost crossing through infinity to the leftmost one.
    """
    def arc(x: int, u: int, v: int, through_inf: bool) -> tuple[int, int, int]:
        if through_inf:
            return (x, u, v) if rank[x][u] == m - 1 else (x, v, u)
        return (x, u, v) if rank[x][u] < rank[x][v] else (x, v, u)

    return arc(i, j, k, inf_i), arc(j, i, k, inf_j), arc(k, i, j, inf_k)


def _assemble(rank: list[list[int]], m: int, i: int, j: int, k: int,
              inf_i: bool, inf_j: bool, inf_k: bool) -> DualTriangle:
    arcs = _directed_arcs(rank, m, i, j, k, inf_i, inf_j, inf_k)
    indeg: dict[tuple[int, int], int] = {}
    for x, t, h in arcs:
        tail = (x, t) if x < t else (t, x)
        head = (x, h) if x < h else (h, x)
        indeg.setdefault(tail, 0)
        indeg[head] = indeg.get(head, 0) + 1
    lines = tuple(sorted((i, j, k)))
    verts = tuple(sorted(indeg))
    unbounded = frozenset(
        x for x, flag in ((i, inf_i), (j, inf_j), (k, inf_k)) if flag)
    if sorted(indeg.values()) == [1, 1, 1]:
        return DualTriangle(lines, verts, unbounded, True, None, None)
    exit_pair = next(v for v, d in indeg.items() if d == 1)
    witness = next(l for l in lines if l not in exit_pair)
    return DualTriangle(lines, verts, unbounded, False, exit_pair, witness)


def _scan_triangles(order: list[list[int]], rank: list[list[int]]) -> Iterator[DualTriangle]:
    """Yield every triangular cell exactly once (from its smallest line)."""
    n = len(order)
    m = n - 1
    if m == 2:
        # two crossings per line: both arcs between them are empty, so
        # enumerate arc-type combinations explicitly
        i, row = 0, order[0]
        for idx in range(m):
            j = row[idx]
            wrap = idx == m - 1
            k = row[0] if wrap else row[idx + 1]
            for inf_j in (False, True):
                for inf_k in (False, True):
                    if (wrap + inf_j + inf_k) % 2 == 0:
                        yield _assemble(rank, m, i, j, k, wrap, inf_j, inf_k)
        return
    m1 = m - 1
    for i in range(n):
        row = order[i]
        for idx in range(m):
            j = row[idx]
            if j < i:
                continue
            wrap = idx == m1
            k = row[0] if wrap else row[idx + 1]
            if k < i:
                continue
            rj = rank[j]
            rji = rj[i]
            rjk = rj[k]
            d = rji - rjk
            if d == 1 or d == -1:
                inf_j = False
            elif (rji == 0 and rjk == m1) or (rjk == 0 and rji == m1):
                inf_j = True
            else:
                continue
            rk = rank[k]
            rki = rk[i]
            rkj = rk[j]
            d = rki - rkj
            if d == 1 or d == -1:
                inf_k = False
            elif (rki == 0 and rkj == m1) or (rkj == 0 and rki == m1):
                inf_k = True
            else:
                continue
            if (wrap + inf_j + inf_k) % 2 == 0:
                yield _assemble(rank, m, i, j, k, wrap, inf_j, inf_k)


def _collect_exit_items(order: list[list[int]], rank: list[list[int]],
                        out: dict[int, object]) -> None:
    """Lean variant of the triangle scan: record witness(es) per unmarked
    triangle into ``out``, keyed by a*n + b, with minimal allocation.

    Per triangle the three arcs directed along their lines give each
    vertex an in-degree; the scan's gap ordering fixes the arc on the
    scanned line to head at v_ik, so two booleans (where the other two
    arcs head) decide between the marked cycle and the three possible
    exit vertices.
    """
    n = len(order)
    m = n - 1
    m1 = m - 1
    get = out.get
    for i in range(n):
        row = order[i]
        base_i = i * n
        for idx in range(m):
            j = row[idx]
            if j < i:
                continue
            wrap = idx == m1
            k = row[0] if wrap else row[idx + 1]
            if k < i:
                continue
            rj = rank[j]
            rji = rj[i]
            rjk = rj[k]
            d = rji - rjk
            if d == 1 or d == -1:
                inf_j = False
            elif (rji == 0 and rjk == m1) or (rjk == 0 and rji == m1):
                inf_j = True
            else:
                continue
            rk = rank[k]
            rki = rk[i]
            rkj = rk[j]
            d = rki - rkj
            if d == 1 or d == -1:
                inf_k = False
            elif (rki == 0 and rkj == m1) or (rkj == 0 and rki == m1):
                inf_k = True
            else:
                continue
            if (wrap + inf_j + inf_k) & 1:
                continue
            hj = (rji == 0) if inf_j else (rji > rjk)
            hk = (rki == 0) if inf_k else (rki > rkj)
            if hj:
                if not hk:
                    continue  # directed cycle: the marked cell
                key = base_i + j
                w = k
            elif hk:
                key = j * n + k if j < k else k * n + j
                w = i
            else:
                key = base_i + k
                w = j
            prev = get(key)
            if prev is None:
                out[key] = w
            elif type(prev) is int:
                out[key] = [prev, w]
            else:
                prev.append(w)


def _tables_for(ps: PointSet) -> tuple[list[list[int]], list[list[int]]]:
    sheared, _ = shear_to_generic(ps)
    a = [c[0] for c in sheared.int_coords]
    b = [-c[1] for c in sheared.int_coords]
    return crossing_tables(a, b)


def dual_triangles(ps: PointSet) -> list[DualTriangle]:
    """All triangular cells of the dual arrangement of the point set,
    labeled by primal point indices.  The set is sheared internally."""
    if len(ps) < 3:
        raise TooFewPointsError("dual triangle scan needs at least 3 points")
    order, rank = _tables_for(ps)
    tris = list(_scan_triangles(order, rank))
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
            out.append(Hourglass((cells[0], cells[1]), vertex, vertex))
    return out


def _edges_from_int_keys(collected: dict[int, object], n: int) -> tuple[ExitEdge, ...]:
    edges = []
    for key in sorted(collected):
        ws = collected[key]
        pair = divmod(key, n)
        if type(ws) is int:
            edges.append(ExitEdge(pair, frozenset((ws,))))
        else:
            if len(ws) > 2:
                raise TripleSharedExitVertexError(
                    f"{len(ws)} witnesses for exit vertex {pair}")
            edges.append(ExitEdge(pair, frozenset(ws)))
    return tuple(edges)


# below this size the vectorized path is not worth its setup cost
_VECTOR_THRESHOLD = 64


def _exit_edges_vectorized(a: list[int], b: list[int], n: int) -> tuple[ExitEdge, ...]:
    from . import fastscan

    order, rank = fastscan.crossing_tables_np(a, b)
    keys, wits = fastscan.scan_exit_items_np(order, rank)
    uniq, starts, counts, ws = fastscan.group_exit_items_np(keys, wits)
    if counts.size and int(counts.max()) > 2:
        raise TripleSharedExitVertexError("an exit vertex gathered 3+ witnesses")
    ws_l = ws.tolist()
    edges = []
    append = edges.append
    for u, s, c in zip(uniq.tolist(), starts.tolist(), counts.tolist()):
        pair = divmod(u, n)
        if c == 1:
            append(ExitEdge(pair, frozenset((ws_l[s],))))
        else:
            append(ExitEdge(pair, frozenset((ws_l[s], ws_l[s + 1]))))
    return tuple(edges)


def exit_edges_dual(ps: PointSet) -> tuple[ExitEdge, ...]:
    """Exit edges via the dual arrangement: one unmarked triangle per
    (edge, witness) pair; hourglasses merge into two-witness edges."""
    n = len(ps)
    if n < 3:
        raise TooFewPointsError("exit edges need at least 3 points")
    if n >= _VECTOR_THRESHOLD:
        sheared, _ = shear_to_generic(ps)
        a = [c[0] for c in sheared.int_coords]
        b = [-c[1] for c in sheared.int_coords]
        from . import fastscan  # here, so that small inputs never load numpy

        if fastscan.coords_are_safe(a, b):
            return _exit_edges_vectorized(a, b, n)
        order, rank = crossing_tables(a, b)
        collected: dict[int, object] = {}
        _collect_exit_items(order, rank, collected)
        return _edges_from_int_keys(collected, n)
    order, rank = _tables_for(ps)
    collected: dict[int, object] = {}
    if n == 3:
        for t in _scan_triangles(order, rank):
            if not t.marked:
                a, b = t.exit_vertex
                key = a * n + b
                prev = collected.get(key)
                if prev is None:
                    collected[key] = t.witness_line
                elif type(prev) is int:
                    collected[key] = [prev, t.witness_line]
    else:
        _collect_exit_items(order, rank, collected)
    return _edges_from_int_keys(collected, n)
