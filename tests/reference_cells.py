"""A triangle scan for tests, independent of the package's own scan.

``dual_triangles_reference`` finds every triangular cell from the crossing
tables alone: each cell's three arcs directed along their lines, and the
cell built from the in-degrees of its vertices.  It shares no code with
the ExitGraph that ``dual_triangles`` and ``stats_report`` read.
``hourglasses`` pairs the unmarked cells that share an exit vertex.
"""

from dataclasses import dataclass

from exitgraph import DualTriangle, TripleSharedExitVertexError, shear_to_generic
from reference_arrangement import crossing_orders


def dual_coefficients(ps):
    sheared, _ = shear_to_generic(ps)
    return [c[0] for c in sheared.int_coords], [-c[1] for c in sheared.int_coords]


def _directed_arcs(rank, m, i, j, k, inf_i, inf_j, inf_k):
    """The three boundary arcs directed along their lines.

    Bounded arcs run left to right; the infinity arc runs from the
    rightmost crossing through infinity to the leftmost one.
    """
    def arc(x, u, v, through_inf):
        if through_inf:
            return (x, u, v) if rank[x][u] == m - 1 else (x, v, u)
        return (x, u, v) if rank[x][u] < rank[x][v] else (x, v, u)

    return arc(i, j, k, inf_i), arc(j, i, k, inf_j), arc(k, i, j, inf_k)


def _assemble(rank, m, i, j, k, inf_i, inf_j, inf_k):
    arcs = _directed_arcs(rank, m, i, j, k, inf_i, inf_j, inf_k)
    indeg = {}
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


def _scan_triangles(order, rank):
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
            rji, rjk = rank[j][i], rank[j][k]
            if abs(rji - rjk) == 1:
                inf_j = False
            elif (rji == 0 and rjk == m1) or (rjk == 0 and rji == m1):
                inf_j = True
            else:
                continue
            rki, rkj = rank[k][i], rank[k][j]
            if abs(rki - rkj) == 1:
                inf_k = False
            elif (rki == 0 and rkj == m1) or (rkj == 0 and rki == m1):
                inf_k = True
            else:
                continue
            if (wrap + inf_j + inf_k) % 2 == 0:
                yield _assemble(rank, m, i, j, k, wrap, inf_j, inf_k)


def dual_triangles_reference(ps):
    """Every triangular cell of the dual arrangement, in the order of
    dual_triangles."""
    tris = list(_scan_triangles(*crossing_orders(*dual_coefficients(ps))))
    tris.sort(key=lambda t: (t.lines, sorted(t.unbounded_lines)))
    return tris


@dataclass(frozen=True)
class Hourglass:
    """Two unmarked triangular cells sharing an exit vertex."""

    cells: tuple[DualTriangle, DualTriangle]
    shared_exit_vertex: tuple[int, int]


def hourglasses(tris):
    """Pair up unmarked triangles sharing an exit vertex."""
    groups = {}
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
