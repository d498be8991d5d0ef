import os
import random
import struct
import subprocess
import sys
from array import array
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import exitgraph
from exitgraph import (
    CollinearTripleError,
    ConcurrentLinesError,
    ExitEdge,
    ExitGraph,
    NonDistinctSlopesError,
    TripleSharedExitVertexError,
    certify_general_position,
    dual_triangles,
    exit_edges_bruteforce,
    exit_edges_dual,
    trusted_point_set,
)
from exitgraph import dual, fastscan
from exitgraph.dual import _exit_edges_vectorized, crossing_tables
from conftest import KINDS, grid_sets, mixed_sets, random_sets
from reference_arrangement import crossing_orders, dualize
from reference_cells import dual_coefficients, dual_triangles_reference, hourglasses


def test_dualize_formula():
    ps = trusted_point_set([(2, 3), (0, 0), (-1, 1)])
    lines = dualize(ps)
    assert (lines[0].slope, lines[0].intercept) == (2, -3)
    assert (lines[1].slope, lines[1].intercept) == (0, 0)
    assert (lines[2].slope, lines[2].intercept) == (-1, -1)
    assert [l.source for l in lines] == [0, 1, 2]


def test_dualize_rejects_shared_x():
    ps = trusted_point_set([(1, 0), (1, 5), (3, 1)])
    with pytest.raises(NonDistinctSlopesError):
        dualize(ps)


def test_crossing_tables_detect_concurrency():
    # dual lines of a collinear primal triple pass through a common point
    a, b = [0, 1, 2], [0, -1, -2]
    with pytest.raises(ConcurrentLinesError):
        crossing_tables(a, b)


# crossings whose x coordinates differ by about 1e-18, below the
# resolution of a float key
_NEAR_TIES = [(0, 0), (1, 10 ** 9), (10 ** 9, 1), (10 ** 9 + 1, -10 ** 9), (2, 2 * 10 ** 9 + 1)]


def _assert_exact_tables(a, b):
    """order[i] is the Fraction-sorted x of the crossings on line i, rank
    is its inverse, the successor table nxt[i] maps each crossing to the
    next one cyclically, and the numpy table equals it where it is safe."""
    n = len(a)
    order, rank = crossing_orders(a, b)
    nxt = crossing_tables(a, b)
    for i in range(n):
        xs = {j: Fraction(b[j] - b[i], a[i] - a[j]) for j in range(n) if j != i}
        assert order[i] == sorted(xs, key=xs.__getitem__)
        assert [rank[i][j] for j in order[i]] == list(range(n - 1))
        assert nxt[i][i] == -1
        assert [nxt[i][j] for j in order[i]] == order[i][1:] + order[i][:1]
    if dual.coords_are_safe(a, b):
        assert fastscan.successor_table_np(a, b).tolist() == nxt


def test_crossing_tables_order_is_exact():
    _assert_exact_tables([0, 1, 2, 5], [0, -3, 1, 2])
    for _, ps in mixed_sets(12, 4, 24, seed=8088):
        _assert_exact_tables(*dual_coefficients(ps))
    _assert_exact_tables(*dual_coefficients(trusted_point_set(_NEAR_TIES)))
    # 2^1100-scaled coordinates: the scale cancels in each quotient, so
    # the float keys stay in range (an overflowing key is tested below)
    ps = next(iter(random_sets(1, 12, 12, seed=1100)))
    scale = 1 << 1100
    _assert_exact_tables(*dual_coefficients(
        trusted_point_set([(p.x * scale, p.y * scale) for p in ps.points])))
    # integer grids from 64 points on: sheared sets on the numpy path
    for _, ps in mixed_sets(3, 64, 80, seed=6480, kinds=("int",)):
        a, b = dual_coefficients(ps)
        assert dual.coords_are_safe(a, b)
        _assert_exact_tables(a, b)


def test_triangle_dual_cells(triangle):
    tris = dual_triangles(triangle)
    assert len(tris) == 4
    assert sum(t.marked for t in tris) == 1
    assert len(hourglasses(tris)) == 0
    assert len(exit_edges_dual(triangle)) == 3


def test_square_dual_cells(unit_square):
    tris = dual_triangles(unit_square)
    assert len(tris) == 4
    assert sum(t.marked for t in tris) == 0
    glasses = hourglasses(tris)
    assert len(glasses) == 2
    assert {g.shared_exit_vertex for g in glasses} == {(0, 2), (1, 3)}


def test_six_point_dual_matches_oracle(six_points):
    assert exit_edges_dual(six_points) == exit_edges_bruteforce(six_points)
    tris = dual_triangles(six_points)
    assert len(tris) == 6 and len(hourglasses(tris)) == 2


def test_hourglasses_correspond_to_two_witness_edges():
    for ps in random_sets(40, 4, 11, seed=909):
        tris = dual_triangles(ps)
        doubles = {e.endpoints for e in exit_edges_dual(ps)
                   if len(e.witnesses) == 2}
        glasses = hourglasses(tris)
        assert {g.shared_exit_vertex for g in glasses} == doubles
        assert len(glasses) == len(doubles)


def test_dual_equals_bruteforce_randomized():
    for ps in random_sets(120, 3, 11, seed=111):
        assert exit_edges_dual(ps) == exit_edges_bruteforce(ps)


def test_exit_vertex_maps_back_to_edge_lines():
    for ps in random_sets(20, 4, 9, seed=222):
        for t in dual_triangles(ps):
            if t.marked:
                assert t.exit_vertex is None and t.witness_line is None
                continue
            a, b = t.exit_vertex
            assert {a, b, t.witness_line} == set(t.lines)
            assert t.exit_vertex in t.vertices


def test_vectorized_path_matches_python_path(monkeypatch):
    monkeypatch.setattr(dual, "_VECTOR_THRESHOLD", 10 ** 9)  # exit_edges_dual scans in Python
    for seed, n in ((1, 70), (2, 90)):
        ps = next(iter(random_sets(1, n, n, seed=seed)))
        a, b = dual_coefficients(ps)
        assert exit_edges_dual(ps) == _exit_edges_vectorized(a, b, n)


def test_vectorized_path_matches_bruteforce_on_small_sets():
    # the numpy scan serves n >= 64 only, where the O(n^4) oracle is too
    # slow; its case analysis does not depend on n from 4 lines on
    sizes = set()
    for ps in random_sets(1000, 4, 12, seed=2525):
        a, b = dual_coefficients(ps)
        assert _exit_edges_vectorized(a, b, len(ps)) == exit_edges_bruteforce(ps)
        sizes.add(len(ps))
    assert sizes == set(range(4, 13))


def test_blocked_tables_and_scan_match_one_block(monkeypatch):
    # the numpy table and scan run over blocks of rows; blocks of one
    # row, and blocks that leave a remainder, give the same table and edges
    for ps in random_sets(60, 4, 12, seed=3300):
        a, b = dual_coefficients(ps)
        with monkeypatch.context() as m:
            m.setattr(fastscan, "_BLOCK_SLOTS", 1)
            assert _exit_edges_vectorized(a, b, len(ps)) == exit_edges_bruteforce(ps)
    for n in (64, 75, 100):
        ps = next(iter(random_sets(1, n, n, seed=3300 + n)))
        a, b = dual_coefficients(ps)
        nxt = fastscan.successor_table_np(a, b)
        with monkeypatch.context() as m:
            m.setattr(dual, "_VECTOR_THRESHOLD", 10 ** 9)  # the pure-Python scan
            python = exit_edges_dual(ps)
        for slots in (1, 7 * n):
            with monkeypatch.context() as m:
                m.setattr(fastscan, "_BLOCK_SLOTS", slots)
                assert np.array_equal(fastscan.successor_table_np(a, b), nxt)
                assert _exit_edges_vectorized(a, b, n) == python

    # a row that fails certification in a later block is still re-sorted
    # exactly, and here raises on its concurrent lines
    rng = random.Random(3)
    pts = {(rng.randint(0, 4 * 70 * 70), rng.randint(0, 4 * 70 * 70)) for _ in range(67)}
    base = 10 ** 6
    ps = trusted_point_set(sorted(pts) + [(base, base), (base + 1, base + 1), (base + 2, base + 2)])
    monkeypatch.setattr(fastscan, "_BLOCK_SLOTS", 1)
    with pytest.raises(ConcurrentLinesError):
        exit_edges_dual(ps)


def test_numpy_scan_writes_the_python_scan_codes(monkeypatch):
    # both scans read the same successor table and write one code per
    # unmarked cell, in blocks of one row and of the default size
    for n in range(64, 101):
        ps = next(iter(random_sets(1, n, n, seed=3400 + n)))
        a, b = dual_coefficients(ps)
        python = sorted(dual._scan_cells(crossing_tables(a, b)))
        for slots in (1, fastscan._BLOCK_SLOTS):
            with monkeypatch.context() as m:
                m.setattr(fastscan, "_BLOCK_SLOTS", slots)
                nxt = fastscan.successor_table_np(a, b)
                codes = fastscan.scan_codes_np(nxt)
            assert codes.dtype == np.int64
            assert sorted(codes.tolist()) == sorted(dual._scan_cells(nxt.tolist())) == python


def _both_builders(codes, n):
    """The exit graphs that dual._exit_graph and fastscan.exit_graph_np
    build from the same codes (a*n + b)*n + w; each sorts its own copy."""
    return (dual._exit_graph(list(codes), n),
            fastscan.exit_graph_np(np.array(codes, dtype=np.int64), n))


def test_exit_edge_builder_refuses_three_witnesses():
    # each backend fills its columns in one builder; in general position
    # no exit vertex gathers three witnesses.  With n = 4 the code of the
    # exit vertex (1, 2) and the witness 0 is (1*4 + 2)*4 + 0 = 24
    expected = (ExitEdge((0, 1), frozenset({2, 3})), ExitEdge((1, 2), frozenset({0})))
    for graph in _both_builders([24, 7, 6], 4):
        assert graph == expected
        assert [c.tolist() for c in (graph.a, graph.b, graph.w0, graph.w1)] == [
            [0, 1], [1, 2], [2, 0], [3, -1]]
    with pytest.raises(TripleSharedExitVertexError):
        dual._exit_graph([7, 8, 9], 5)
    with pytest.raises(TripleSharedExitVertexError):
        fastscan.exit_graph_np(np.array([7, 8, 9], dtype=np.int64), 5)


# items: hand-made scan codes (a*n + b)*n + w in any order; with n = 10
# or 1000 the decimal digits of a code read a, b and w
@pytest.mark.parametrize("items, n", [
    ([39], 5),  # (1, 2) with the witness 4
    ([39, 35], 5),  # two witnesses, given in descending order
    ([230, 39, 182, 34, 231, 196], 10),
    ([998999997, 998999000, 1999, 1002, 1005003], 1000),  # the largest labels
])
def test_numpy_exit_graph_builder_matches_the_python_one(items, n):
    # on both backends one sort of the codes groups each vertex's
    # witnesses, w0 < w1; the numpy columns are int32
    python, graph = _both_builders(items, n)
    assert graph.columns() == python.columns()
    assert [c.dtype for c in (graph.a, graph.b, graph.w0, graph.w1)] == [np.int32] * 4
    assert all(w0 < w1 for w0, w1 in zip(graph.w0.tolist(), graph.w1.tolist()) if w1 >= 0)
    assert _reference_edges([divmod(code, n) for code in items], n) == tuple(graph)


@pytest.mark.parametrize("items, n", [
    ([9, 7, 8], 5),
    ([12, 235, 70, 239, 13, 236, 73, 71], 10),
    ([k * 1000 + w for k in (900, 5, 999) for w in (1, 2, 3, 4)], 1000),
])
def test_numpy_exit_graph_builder_refuses_a_third_witness_as_python_does(items, n):
    with pytest.raises(TripleSharedExitVertexError) as python:
        dual._exit_graph(list(items), n)
    with pytest.raises(TripleSharedExitVertexError) as vectorized:
        fastscan.exit_graph_np(np.array(items, dtype=np.int64), n)
    assert str(vectorized.value) == str(python.value)


def _exit_edge_tuple(keys, witnesses, n):
    """Reference: the tuple of ExitEdges that exit_edges_dual returned
    before ExitGraph.  Exit vertex keys[t] = a*n + b, ascending, has the
    witness witnesses[t], or the list witnesses[t] if it has several."""
    edges = []
    for key, ws in zip(keys, witnesses):
        if type(ws) is int:
            edges.append(ExitEdge(divmod(key, n), frozenset((ws,))))
        elif len(ws) == 2:
            edges.append(ExitEdge(divmod(key, n), frozenset(ws)))
        else:
            raise TripleSharedExitVertexError(
                f"{len(ws)} witnesses for exit vertex {divmod(key, n)}")
    return tuple(edges)


def _reference_edges(items, n):
    groups = {}
    for key, w in items:
        groups.setdefault(key, []).append(w)
    keys = sorted(groups)
    return _exit_edge_tuple(keys, [ws[0] if len(ws) == 1 else ws for ws in map(groups.get, keys)], n)


def _reference_python(a, b):
    n = len(a)
    return _reference_edges([divmod(code, n) for code in dual._exit_codes(a, b)], n)


def _reference_vectorized(a, b):
    n = len(a)
    codes = fastscan.scan_codes_np(fastscan.successor_table_np(a, b))
    return _reference_edges([divmod(code, n) for code in codes.tolist()], n)


_SLICES = (slice(None), slice(1, None), slice(None, -1), slice(-3, None),
           slice(None, None, -2), slice(2, 100, 3), slice(5, 2), slice(-1000, 1000))


def _assert_same_edges(graph, ref):
    assert isinstance(graph, ExitGraph)
    assert len(graph) == len(ref)
    assert list(graph) == list(ref)
    assert tuple(graph[t] for t in range(-len(ref), len(ref))) == ref + ref
    for cut in _SLICES:
        assert graph[cut] == ref[cut], cut
    assert graph == ref and ref == graph
    assert not graph != ref and not ref != graph
    for t in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            graph[t]


def test_exit_graph_matches_tuple_builder_on_both_backends(monkeypatch):
    backends = {"python": 0, "numpy": 0}
    for _, ps in mixed_sets(150, 3, 14, seed=3030):
        a, b = dual_coefficients(ps)
        _assert_same_edges(exit_edges_dual(ps), _reference_python(a, b))
        backends["python"] += 1
        if dual.coords_are_safe(a, b):
            _assert_same_edges(_exit_edges_vectorized(a, b, len(ps)),
                               _reference_vectorized(a, b))
            backends["numpy"] += 1
    assert backends["python"] == 150 and backends["numpy"] >= 90, backends

    for n in range(64, 101):
        ps = next(iter(random_sets(1, n, n, seed=3100 + n)))
        a, b = dual_coefficients(ps)
        vectorized = exit_edges_dual(ps)
        assert isinstance(vectorized.a, np.ndarray)
        _assert_same_edges(vectorized, _reference_vectorized(a, b))
        with monkeypatch.context() as m:
            m.setattr(dual, "_VECTOR_THRESHOLD", 10 ** 9)  # the pure-Python scan
            python = exit_edges_dual(ps)
        assert not isinstance(python.a, np.ndarray)
        _assert_same_edges(python, _reference_python(a, b))
        assert python == vectorized and vectorized == python


def test_exit_graph_differs_from_tuple_with_one_witness_changed(monkeypatch):
    ps = next(iter(random_sets(1, 70, 70, seed=3200)))
    graphs = [exit_edges_dual(ps)]
    monkeypatch.setattr(dual, "_VECTOR_THRESHOLD", 10 ** 9)
    graphs.append(exit_edges_dual(ps))
    for graph in graphs:
        ref = tuple(graph)
        for t in (0, len(ref) // 2, len(ref) - 1,
                  next(t for t, e in enumerate(ref) if len(e.witnesses) == 2)):
            e = ref[t]
            other = next(c for c in range(70) if c not in e.endpoints and c not in e.witnesses)
            witnesses = sorted(e.witnesses)
            witnesses[0] = other
            changed = ref[:t] + (ExitEdge(e.endpoints, frozenset(witnesses)),) + ref[t + 1:]
            assert graph != changed and changed != graph
            assert not graph == changed and not changed == graph
            columns = graph.columns()
            columns[2][t] = other
            assert graph != ExitGraph(*(array("q", c) for c in columns))
        assert graph != ref[:-1] and graph != ref + ref[:1]
        assert graph == ExitGraph(*(array("q", c) for c in graph.columns()))


def test_dual_triangles_match_reference(triangle, unit_square, six_points):
    for ps in (triangle, unit_square, six_points):
        assert dual_triangles(ps) == dual_triangles_reference(ps)
    kinds = dict.fromkeys(KINDS, 0)
    sizes = set()
    for kind, ps in mixed_sets(300, 3, 14, seed=2626):
        assert dual_triangles(ps) == dual_triangles_reference(ps)
        kinds[kind] += 1
        sizes.add(len(ps))
    assert all(v == 100 for v in kinds.values())
    assert sizes == set(range(3, 15))


def test_three_points_take_the_closed_form(monkeypatch):
    def no_numpy_scan(*args):
        raise AssertionError("the numpy scan ran on three points")

    monkeypatch.setattr(fastscan, "scan_codes_np", no_numpy_scan)
    count = 0
    for _, ps in mixed_sets(240, 3, 3, seed=2727):
        assert exit_edges_dual(ps) == exit_edges_bruteforce(ps)
        assert dual_triangles(ps) == dual_triangles_reference(ps)
        count += 1
    assert count == 240


def test_dual_path_flags_collinear_input():
    for pts in ([(0, 0), (1, 1), (2, 2), (7, 0)], [(0, 0), (1, 1), (2, 2)]):
        bad = trusted_point_set(pts)
        with pytest.raises(ConcurrentLinesError):
            exit_edges_dual(bad)
        with pytest.raises(ConcurrentLinesError):
            dual_triangles(bad)


@pytest.mark.parametrize("ns, scale, vectorized, seed", [
    (range(3, 13), 1, False, 11),
    (range(64, 91), 1, True, 12),
    (range(64, 91, 2), 1 << 40, False, 13),  # past MAX_SAFE_COORD: the big-coordinate path
])
def test_dual_scan_ties_iff_certification_finds_a_collinear_triple(ns, scale, vectorized, seed):
    # the scan's crossing tables are the general-position certificate
    # that the CLI and the search rely on
    seen = Counter()
    for kind, pts in grid_sets(ns, seed, scale):
        ps = trusted_point_set(pts)
        assert (len(ps) >= dual._VECTOR_THRESHOLD
                and dual.coords_are_safe(*dual._dual_coefficients(ps))) == vectorized
        try:
            certify_general_position(pts)
            collinear = False
        except CollinearTripleError:
            collinear = True
        try:
            exit_edges_dual(ps)
            tied = False
        except ConcurrentLinesError:
            tied = True
        assert tied == collinear, (kind, pts)
        seen[collinear] += 1
    assert seen[True] >= len(ns) and seen[False] >= len(ns) // 2, seen


def test_vectorized_path_detects_concurrency():
    import random as _random
    rng = _random.Random(3)
    pts = set()
    while len(pts) < 67:
        pts.add((rng.randint(0, 4 * 70 * 70), rng.randint(0, 4 * 70 * 70)))
    base = 10 ** 6
    pts = sorted(pts) + [(base, base), (base + 1, base + 1), (base + 2, base + 2)]
    ps = trusted_point_set(pts)
    with pytest.raises(ConcurrentLinesError):
        exit_edges_dual(ps)


def test_huge_coordinates_fall_back_to_exact_python_path():
    ps = next(iter(random_sets(1, 64, 64, seed=4)))
    scale = 1 << 40  # beyond the vectorized int64 safety bound
    big = trusted_point_set([(p.x * scale, p.y * scale) for p in ps.points])
    assert exit_edges_dual(big) == exit_edges_dual(ps)


def test_coordinates_past_the_numpy_bound_never_load_numpy():
    # the coordinate bound is tested before fastscan (and numpy) is
    # imported, so a 2^40-scaled set of 64 points or more runs the
    # pure-Python scan in a process that never loads numpy
    code = (
        "import random, sys\n"
        "from array import array\n"
        "import exitgraph\n"
        "ps = exitgraph.random_general_position(70, random.Random(70))\n"
        "big = exitgraph.trusted_point_set([(x << 40, y << 40) for x, y in ps.int_coords])\n"
        "edges = exitgraph.exit_edges_dual(big)\n"
        "assert len(edges) > 0\n"
        "assert all(isinstance(c, array) for c in (edges.a, edges.b, edges.w0, edges.w1))\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
    )
    env = dict(os.environ)
    src = str(Path(exitgraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert dual.MAX_SAFE_COORD == 1 << 29


def _successor_graph(ps):
    """The exit graph of the pure-Python successor-table scan, at any size."""
    a, b = dual_coefficients(ps)
    return dual._exit_graph(dual._exit_codes(a, b), len(ps))


def test_successor_scan_matches_numpy_and_bruteforce_on_four_to_six_points():
    # on four lines the three crossings of each line form a 3-cycle, so
    # every pair is adjacent and only the successor's direction decides
    sizes = Counter()
    for ps in random_sets(300, 4, 6, seed=4646):
        a, b = dual_coefficients(ps)
        python = _successor_graph(ps)
        assert python == _exit_edges_vectorized(a, b, len(ps))
        assert python == exit_edges_bruteforce(ps)
        sizes[len(ps)] += 1
    assert set(sizes) == {4, 5, 6}, sizes


def test_successor_scan_matches_numpy_from_64_points():
    # rationals, coordinates above 2^64 and their 2^40-scaled copies; a
    # translation and a positive scale keep every orientation, so the
    # numpy graph of the translated and reduced integer grid is the
    # reference, past the numpy coordinate bound too
    kinds = Counter()
    for kind, ps in mixed_sets(6, 64, 120, seed=6412, kinds=("rational", "big")):
        grid = ps.int_coords
        x0, y0 = min(x for x, _ in grid), min(y for _, y in grid)
        g = gcd(*(v for x, y in grid for v in (x - x0, y - y0)))
        reduced = trusted_point_set([((x - x0) // g, (y - y0) // g) for x, y in grid])
        a, b = dual_coefficients(reduced)
        assert dual.coords_are_safe(a, b)
        vectorized = _exit_edges_vectorized(a, b, len(ps))
        scaled = trusted_point_set([(x << 40, y << 40) for x, y in grid])
        for copy in ps, scaled:
            assert _successor_graph(copy) == vectorized
        assert not dual.coords_are_safe(*dual_coefficients(scaled))
        kinds[kind] += 1
    assert kinds == {"rational": 3, "big": 3}, kinds


def test_exact_resort_survives_adversarial_near_ties():
    # the pure-Python tables sort every row on exact integer keys, so
    # near-tie crossings come out in their exact order
    ps = trusted_point_set(_NEAR_TIES)
    assert exit_edges_dual(ps) == exit_edges_bruteforce(ps)


def _spy_exact_row(monkeypatch, module):
    """The rows i that module's _exact_row re-sorts, as they are sorted."""
    resorted = []
    exact_row = module._exact_row

    def spy(a, qb, i, row):
        resorted.append(i)
        return exact_row(a, qb, i, row)

    monkeypatch.setattr(module, "_exact_row", spy)
    return resorted


@pytest.mark.parametrize("pts, resorted_rows", [
    # line 1 crosses line 0 at x = 2^1030, and every other line past
    # 2^1027: each row has a key that overflows
    ([(0, 0), (1, 2 ** 1030), (2, 5), (3, -7), (5, 11), (8, 2)], [0, 1, 2, 3, 4, 5]),
    # on line 0, lines 1 and 2 cross at (k-1)/k and (k-3)/(k-2), which
    # differ by about 2^-120: distinct crossings with one float key, and
    # the two nearly equal lines tie likewise on every other line
    ([(0, 0), (-(2 ** 60 - 1), -(2 ** 60 - 2)), (-(2 ** 60 - 3), -(2 ** 60 - 4)), (5, 7), (-11, 3)],
     [0, 1, 2, 3, 4]),
    # small coordinates: every key differs, and no row is re-sorted
    ([(-5, 5), (5, 5), (-5, -5), (5, -5), (-3, 2), (-3, -2)], []),
])
def test_python_tables_resort_exactly_the_rows_whose_keys_fail(monkeypatch, pts, resorted_rows):
    ps = certify_general_position(pts)
    resorted = _spy_exact_row(monkeypatch, dual)
    assert exit_edges_dual(ps) == exit_edges_bruteforce(ps)
    assert resorted == resorted_rows
    _assert_exact_tables(*dual_coefficients(ps))


def test_concurrent_lines_name_the_same_labels_on_both_backends():
    # dense grids hold many collinear triples, planted ones one or a few:
    # both backends raise for the first row with two coinciding crossings
    seen = Counter()
    for kind, pts in grid_sets(range(64, 72), seed=2929):
        ps = trusted_point_set(pts)
        a, b = dual._dual_coefficients(ps)
        assert dual.coords_are_safe(a, b)
        try:
            certify_general_position(ps.int_coords)
            continue
        except CollinearTripleError as err:
            triple = err.labels
        with pytest.raises(ConcurrentLinesError) as fast:
            _exit_edges_vectorized(a, b, len(ps))
        with pytest.raises(ConcurrentLinesError) as python:
            dual._exit_codes(a, b)
        assert fast.value.labels == python.value.labels
        # the first row with a tie is the smallest label on any collinear
        # triple, the first label of the triple that certification names
        assert fast.value.labels[0] == triple[0]
        seen[kind] += 1
    assert seen["dense"] == 8 and seen["planted"] >= 6, seen


def test_vectorized_exact_resort_of_a_failed_row(monkeypatch):
    # rows 0 and 3 fail the float certification of the numpy tables: on
    # each, the float keys of the two nearly equal lines 1 and 2 tie, and
    # the exact re-sort does not raise; every other row is left as sorted.
    # With small coordinates every key differs, and no row is re-sorted
    k = (1 << 29) - 1
    resorted = _spy_exact_row(monkeypatch, fastscan)
    for pts, resorted_rows in (
            ([(0, 0), (-k, -(k - 1)), (-(k - 2), -(k - 3)), (5, 7), (-11, 3)], [0, 3]),
            ([(-5, 5), (5, 5), (-5, -5), (5, -5), (-3, 2), (-3, -2)], [])):
        ps = certify_general_position(pts)
        a, b = dual_coefficients(ps)
        resorted.clear()
        assert _exit_edges_vectorized(a, b, len(ps)) == exit_edges_bruteforce(ps)
        assert resorted == resorted_rows


def test_packed_sort_leaves_a_tied_high_part_to_the_float_keys(monkeypatch):
    # on line 0 of the near-tie family below, lines 1 and 2 cross at
    # (k-1)/k and (k-3)/(k-2), about 2/k^2 apart: for k near 2^26 a few
    # ulps, so their float keys can differ while the packed keys, whose
    # low L = 3 bits hold the column, keep equal high parts.  The packed
    # sort then puts column 1 first, though its key is the larger: the
    # row must be sorted on its float keys, and not by _exact_row
    def high(x):
        return int.from_bytes(struct.pack("<d", x), "little") >> 3

    rng = random.Random(2 ** 26)
    for _ in range(100):
        k = (1 << 26) + rng.randrange(-(1 << 20), 1 << 20)
        ps = certify_general_position([(0, 0), (-k, -(k - 1)), (-(k - 2), -(k - 3)), (5, 7), (-11, 3)])
        a, b = dual_coefficients(ps)
        x1, x2 = (b[1] - b[0]) / (a[0] - a[1]), (b[2] - b[0]) / (a[0] - a[2])
        if x1 > x2 and high(x1) == high(x2):
            break
    else:
        pytest.fail("no k in the range gives a tie of high parts")
    assert (len(a) - 1).bit_length() == 3 and dual.coords_are_safe(a, b)
    resorted = _spy_exact_row(monkeypatch, fastscan)
    nxt = fastscan.successor_table_np(a, b)
    assert 0 not in resorted
    assert nxt.tolist() == crossing_tables(a, b)
    assert nxt[0, 2] == 1  # line 2's crossing comes first, then line 1's


def test_zero_keys_of_both_signs_tie_on_both_backends():
    # the horizontal triple (50, y), (10, y), (90, y) as labels 0, 1, 2:
    # their dual lines meet at x = 0, where line 0, of the middle slope,
    # has the keys 0/40 = +0.0 and 0/-40 = -0.0 for lines 1 and 2.  The
    # two zeros are equal floats, but their bits differ, so the packed
    # keys must see them as one key for row 0 to name the triple
    rest = [(x + 100, y) for x, y in exitgraph.random_general_position(67, random.Random(67)).int_coords]
    y = next(v for v in range(1000, 10 ** 6) if v not in {q for _, q in rest})
    pts = [(50, y), (10, y), (90, y)] + rest
    # the triple is the only collinear one: dropping label 0, or label
    # 1, leaves a set in general position
    certify_general_position(pts[:1] + pts[2:])
    certify_general_position(pts[1:])
    a, b = dual._dual_coefficients(trusted_point_set(pts))
    assert a[:3] == [50, 10, 90] and dual.coords_are_safe(a, b)
    for table in crossing_tables, fastscan.successor_table_np:
        with pytest.raises(ConcurrentLinesError) as err:
            table(a, b)
        assert err.value.labels == (0, 1, 2)


def test_numpy_scan_takes_coordinates_up_to_the_bound_inclusive(monkeypatch):
    # a sheared 64-point set translated in x, or in y, so that its largest
    # slope, or intercept, is exactly MAX_SAFE_COORD takes the numpy scan,
    # and one more the pure-Python scan; a translation keeps every
    # orientation, and distinct x, so all four give the same graph
    base = exitgraph.shear_to_generic(exitgraph.random_general_position(64, random.Random(64)))[0]
    calls, vectorized = [], dual._exit_edges_vectorized

    def spy(a, b, n):
        calls.append(n)
        return vectorized(a, b, n)

    monkeypatch.setattr(dual, "_exit_edges_vectorized", spy)
    graphs = []
    for axis in (0, 1):
        top = max(p[axis] for p in base.int_coords)
        for bound, numpy_calls in ((dual.MAX_SAFE_COORD, [64]), (dual.MAX_SAFE_COORD + 1, [])):
            d = bound - top
            ps = trusted_point_set([(x + d * (1 - axis), y + d * axis) for x, y in base.int_coords])
            a, b = dual._dual_coefficients(ps)
            assert max(map(abs, (a, b)[axis])) == bound > max(map(abs, (a, b)[1 - axis]))
            calls.clear()
            graphs.append(exit_edges_dual(ps))
            assert calls == numpy_calls
            assert isinstance(graphs[-1].a, np.ndarray if numpy_calls else array)
    assert all(g == graphs[0] for g in graphs)
