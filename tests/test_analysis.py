import gc
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import exitgraph
from exitgraph import (
    CollinearTripleError,
    SizeMismatchError,
    TooFewPointsError,
    certify_general_position,
    compare_exit_structures,
    convex_hull,
    exit_edges_bruteforce,
    exit_edges_dual,
    exit_graph_crossings,
    exit_graph_stats,
    find_order_type_bijection,
    hourglasses,
    outer_face_vertices,
    random_general_position,
    same_order_type_labeled,
    search_min_exit_edges,
    segments_cross,
    shear_to_generic,
    stats_report,
)
from conftest import KINDS, mixed_sets, random_sets
from reference_cells import dual_triangles_reference
from exitgraph.analysis import _Subdivision


def test_square_stats(unit_square):
    rep = stats_report(unit_square)
    assert rep.triangles == 4
    assert rep.triangles_unmarked == 4
    assert rep.hourglass_count == 2
    assert rep.exit_edge_count == 2
    assert rep.lower_bound == Fraction(5, 5)
    assert rep.upper_bound == Fraction(4)
    assert rep.sum_x == 10  # equals 3T - H on the boundary instance
    for ls in rep.per_line:
        assert (ls.t, ls.h, ls.x) == (3, 1, Fraction(5, 2))
    assert rep.all_bounds_hold


def test_stats_rejects_small_sets(triangle):
    with pytest.raises(TooFewPointsError):
        stats_report(triangle)


def test_both_four_point_order_types(unit_square, triangle_with_interior):
    counts = {stats_report(unit_square).exit_edge_count,
              stats_report(triangle_with_interior).exit_edge_count}
    assert counts == {2, 3}
    for c in counts:
        assert 1 <= c <= 4


def test_five_point_order_type_representatives():
    # one representative per order type of five points, edge lists frozen
    # from the brute-force oracle
    expected = {
        "convex": ([(0, 0), (4, 1), (5, 5), (2, 7), (-2, 3)],
                   [((0, 2), {1}), ((0, 3), {4}), ((1, 3), {2}),
                    ((1, 4), {0}), ((2, 4), {3})]),
        "four_hull": ([(0, 0), (6, 0), (6, 6), (0, 6), (2, 3)],
                      [((0, 2), {1, 4}), ((0, 3), {4}), ((1, 3), {2, 4})]),
        "three_hull": ([(0, 0), (8, 0), (4, 7), (3, 2), (5, 3)],
                       [((0, 2), {3}), ((0, 4), {3}), ((1, 2), {4}),
                        ((1, 3), {4})]),
    }
    hull_sizes = set()
    for pts, edges in expected.values():
        ps = certify_general_position(pts)
        hull_sizes.add(len(convex_hull(ps)))
        got = [(e.endpoints, set(e.witnesses)) for e in exit_edges_bruteforce(ps)]
        assert got == edges
        assert stats_report(ps).all_bounds_hold
    assert hull_sizes == {3, 4, 5}


def test_random_stats_verdicts_hold():
    for ps in random_sets(60, 4, 12, seed=1313):
        rep = stats_report(ps)
        assert rep.all_bounds_hold, rep.verdicts


def _stats_counts_reference(ps):
    """T, unmarked, H, the exit count and per-line (t, h, x) counted from
    the cell objects of the reference scan, which shares no code with
    the ExitGraph that stats_report counts from."""
    tris = dual_triangles_reference(ps)
    glasses = hourglasses(tris)
    t = [0] * len(ps)
    h = [0] * len(ps)
    for tri in tris:
        for src in tri.lines:
            t[src] += 1
    for g in glasses:
        for src in g.shared_exit_vertex:
            h[src] += 1
    unmarked = [tri for tri in tris if not tri.marked]
    per_line = [(i, t[i], h[i], Fraction(t[i]) - Fraction(h[i], 2)) for i in range(len(ps))]
    return (len(tris), len(unmarked), len(glasses),
            len({tri.exit_vertex for tri in unmarked}), per_line)


def _stats_counts(rep):
    return (rep.triangles, rep.triangles_unmarked, rep.hourglass_count, rep.exit_edge_count,
            [(ls.source, ls.t, ls.h, ls.x) for ls in rep.per_line])


def test_stats_counts_match_cell_objects():
    kinds = dict.fromkeys(KINDS, 0)
    for kind, ps in mixed_sets(150, 4, 14, seed=2121):
        assert _stats_counts(stats_report(ps)) == _stats_counts_reference(ps), kind
        kinds[kind] += 1
    assert all(v == 50 for v in kinds.values())
    # from 64 points on, exit_edges_dual runs the numpy scan where the
    # coordinates allow it, and the big coordinates keep the Python scan
    large = [*random_sets(5, 64, 100, seed=2222),
             *(ps for _, ps in mixed_sets(4, 64, 100, seed=2323, kinds=("rational", "big")))]
    numpy_runs = 0
    for ps in large:
        rep = stats_report(ps)
        assert _stats_counts(rep) == _stats_counts_reference(ps)
        edges = exit_edges_dual(ps)
        assert exit_graph_stats(ps, edges) == rep  # what the stats command counts
        numpy_runs += type(edges.a).__module__ == "numpy"
    assert 5 <= numpy_runs < len(large)  # both backends ran


def test_stats_counts_match_the_full_arrangement():
    # T, the unmarked count, H and every line's t and h, against the cells
    # that the traced face structure of the whole arrangement finds: the
    # verdicts sum_t_is_three_triangles, sum_h_is_two_hourglasses and
    # exit_count_is_unmarked_minus_hourglasses hold by construction for
    # any counts, so these counts are what makes them checks
    from exitgraph import build_arrangement, dualize, triangular_cells

    kinds = dict.fromkeys(KINDS, 0)
    for kind, ps in mixed_sets(60, 4, 12, seed=1717):
        cells = triangular_cells(build_arrangement(dualize(shear_to_generic(ps)[0])))
        unmarked = [c for c in cells if not c.marked]
        by_vertex: dict[tuple[int, int], int] = {}
        for c in unmarked:
            by_vertex[c.exit_vertex] = by_vertex.get(c.exit_vertex, 0) + 1
        shared = [v for v, count in by_vertex.items() if count == 2]
        t = [sum(i in c.lines for c in cells) for i in range(len(ps))]
        h = [sum(i in v for v in shared) for i in range(len(ps))]
        rep = exit_graph_stats(ps, exit_edges_dual(ps))
        assert (rep.triangles, rep.triangles_unmarked, rep.hourglass_count) == (
            len(cells), len(unmarked), len(shared)), kind
        assert [(ls.t, ls.h) for ls in rep.per_line] == list(zip(t, h)), kind
        assert rep.all_bounds_hold, rep.verdicts
        kinds[kind] += 1
    assert all(v == 20 for v in kinds.values()), kinds


def test_stats_report_memory_is_one_table_and_the_cell_codes():
    # the pure-Python scan holds one n x n successor table of pointers and
    # one integer code per unmarked cell (a 28-byte int and its 8-byte
    # slot), and the counting holds one column's list at a time; a second
    # table's worth covers the rest
    n = 300
    for seed in (1, 2, 3):
        ps = random_general_position(n, random.Random(seed))
        gc.collect()
        tracemalloc.start()
        try:
            rep = stats_report(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2 * n * sys.getsizeof([0] * n) + 40 * rep.triangles_unmarked
        assert peak < bound, (seed, peak, bound)


def test_crossings_square_and_triangle(unit_square, triangle):
    assert exit_graph_crossings(unit_square) == 1
    assert exit_graph_crossings(triangle) == 0


def test_crossings_present_for_nine_or_more():
    for ps in random_sets(25, 9, 12, seed=1414):
        assert exit_graph_crossings(ps) >= 1


def _crossings_reference(ps):
    """The Fraction double loop exit_graph_crossings once ran."""
    edges = exit_edges_dual(ps)
    count = 0
    for s in range(len(edges)):
        a, b = edges[s].endpoints
        for t in range(s + 1, len(edges)):
            c, d = edges[t].endpoints
            if a in (c, d) or b in (c, d):
                continue
            if segments_cross(ps[a], ps[b], ps[c], ps[d]):
                count += 1
    return count


def test_crossings_match_reference_loop():
    kinds = dict.fromkeys(KINDS, 0)
    for kind, ps in mixed_sets(240, 4, 14, seed=1616):
        assert exit_graph_crossings(ps) == _crossings_reference(ps)
        kinds[kind] += 1
    assert all(v == 80 for v in kinds.values())


# four exit edges pass through the origin, so four crossings merge there
_CONCURRENT = [(0, 1), (3, -3), (-3, -6), (6, -2), (-2, 6),
               (0, -1), (-3, 3), (3, 6), (-6, 2), (2, -6)]


def test_concurrent_crossings():
    ps = certify_general_position(_CONCURRENT)
    through_origin = [(a, b) for a, b in (e.endpoints for e in exit_edges_dual(ps))
                      if (ps[a].x, ps[a].y) == (-ps[b].x, -ps[b].y)]
    assert len(through_origin) == 4
    assert exit_graph_crossings(ps) == _crossings_reference(ps) == 38
    assert outer_face_vertices(ps) == set(convex_hull(ps))


def test_outer_face_square_and_triangle(unit_square, triangle):
    assert outer_face_vertices(unit_square) == {0, 1, 2, 3}
    assert outer_face_vertices(triangle) == {0, 1, 2}


def test_outer_face_within_hull():
    # containment in the hull is the structural property; the reverse
    # containment holds as well (the outward sector at a hull vertex is
    # segment-free), so equality pins the subdivision tracing down hard
    for ps in random_sets(60, 4, 12, seed=1515):
        assert outer_face_vertices(ps) == set(convex_hull(ps))


def test_outer_face_is_hull_at_benchmark_sizes():
    # n = 30..40 has thousands of crossings, the regime of the benchmark
    for kind, ps in mixed_sets(8, 30, 40, seed=1717, kinds=("rational", "big")):
        assert exit_graph_crossings(ps) > 1000, kind
        assert outer_face_vertices(ps) == set(convex_hull(ps)), kind


def test_outer_face_with_labels_off_the_exit_graph():
    # a label on no exit edge is placed by its ray alone
    sets_with_one = sets_with_horizontal = 0
    for _, ps in mixed_sets(300, 3, 14, seed=1818):
        edges = [e.endpoints for e in exit_edges_dual(ps)]
        sets_with_one += len({v for e in edges for v in e}) < len(ps)
        sets_with_horizontal += any(ps[a].y == ps[b].y for a, b in edges)
        assert outer_face_vertices(ps) == set(convex_hull(ps))
    assert sets_with_one >= 60 and sets_with_horizontal >= 10


def test_small_analyses_never_load_numpy():
    # below 64 points the exact Python scan runs, and stats_report and
    # the dual figure run it at any size; analysis_mix's memory figure
    # rests on numpy staying unloaded
    code = (
        "import random, sys, exitgraph\n"
        "ps = exitgraph.random_general_position(40, random.Random(3))\n"
        "exitgraph.stats_report(ps)\n"
        "exitgraph.stats_report(exitgraph.random_general_position(70, random.Random(5)))\n"
        "exitgraph.exit_graph_crossings(ps)\n"
        "exitgraph.outer_face_vertices(ps)\n"
        "exitgraph.search_min_exit_edges(12, 3, 4)\n"
        "exitgraph.render_svg(ps, 'dual')\n"
        "exitgraph.render_svg(exitgraph.random_general_position(70, random.Random(7)), 'dual')\n"
        "exitgraph.render_svg(exitgraph.random_general_position(120, random.Random(8)), 'dual')\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
    )
    env = dict(os.environ)
    src = str(Path(exitgraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


# point sets with hand-drawn edge lists (not exit graphs) and the labels
# on their unbounded face, checked against the Fraction subdivision the
# outer face was once traced on
_DRAWINGS = {
    # a triangle with a horizontal side, holding a triangle and a label;
    # a second triangle beside it, a label outside both, one level with the apex of the first
    # one (its ray passes through that apex)
    "nested": ([(0, 0), (20, 0), (9, 19), (7, 5), (12, 6), (9, 10), (10, 3),
                (30, 2), (36, 3), (33, 9), (25, 20), (-5, 19)],
               [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (7, 8), (8, 9), (7, 9)],
               {0, 1, 2, 7, 8, 9, 10, 11}),
    # a pentagram: 5 in the middle pentagon, 7 in a tip, 6 in a notch
    "pentagram": ([(0, 10), (-10, 3), (-6, -8), (6, -8), (10, 3), (1, 1), (0, -7), (1, 6)],
                  [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)],
                  {0, 1, 2, 3, 4, 6}),
    # three edges through the origin and one closing a triangle with it; 6
    # lies in that triangle
    "concurrent": ([(-4, -1), (4, 1), (-1, 4), (1, -4), (-3, 3), (3, -3), (2, -1)],
                   [(0, 1), (2, 3), (4, 5), (1, 3)],
                   {0, 1, 2, 3, 4, 5}),
    # the ray from 0 passes through label 1, where two edges start upwards;
    # the left one bounds the quadrilateral holding 0
    "ray_through_label": ([(0, 0), (10, 0), (8, 10), (14, 9), (-6, 9), (-5, -7)],
                          [(1, 3), (1, 2), (2, 4), (4, 5), (1, 5)],
                          {1, 2, 3, 4, 5}),
    # a triangle on a horizontal side that edge (2, 3) crosses from below;
    # 5 lies inside, and the ray from 4 passes through label 2
    "crossed_horizontal": ([(0, 0), (10, 0), (-3, -3), (6, 4), (-6, -3), (5, 2)],
                           [(0, 1), (1, 3), (0, 3), (2, 3)],
                           {0, 1, 2, 3, 4}),
    # edges (2, 3) and (4, 5) cross (0, 1) at x = 3/72 and x = 3/75: a
    # tight pair of split points, ordered against the edge numbering
    "close_crossings": ([(0, 0), (1, 0), (-1, -25), (2, 47), (-1, 26), (2, -49)],
                        [(0, 1), (2, 3), (4, 5)],
                        {0, 1, 2, 3, 4, 5}),
}


@pytest.mark.parametrize("name", sorted(_DRAWINGS))
def test_outer_face_of_drawings(name):
    pts, edges, expected = _DRAWINGS[name]
    ps = certify_general_position(pts)
    assert _Subdivision(ps, edges).outer_labels() == expected


def _assert_chains_advance(ps, edges):
    # every edge's vertices, crossings included, strictly advance from a to b
    sub = _Subdivision(ps, edges)
    for s, (a, b) in enumerate(edges):
        chain, _ = sub._chain(s)
        dx, dy = sub.dirs[s]
        along = [Fraction(X * dx + Y * dy, W) for X, Y, W in (sub.coords[v] for v in chain)]
        assert chain[0] == a and chain[-1] == b
        assert all(p < q for p, q in zip(along, along[1:]))
    return len(sub.coords) - len(ps)


def test_subdivision_chains_run_along_their_edges():
    for _, ps in mixed_sets(4, 30, 40, seed=1919, kinds=("rational", "big")):
        edges = [e.endpoints for e in exit_edges_dual(ps)]
        assert _assert_chains_advance(ps, edges) == exit_graph_crossings(ps)
    for pts, edges, _ in _DRAWINGS.values():
        _assert_chains_advance(certify_general_position(pts), edges)


def test_same_order_type_trivial_and_shear(unit_square):
    assert same_order_type_labeled(unit_square, unit_square)
    sheared, _ = shear_to_generic(unit_square)
    assert same_order_type_labeled(unit_square, sheared)


def test_label_swap_changes_order_type(unit_square):
    swapped = certify_general_position([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert not same_order_type_labeled(unit_square, swapped)
    assert find_order_type_bijection(unit_square, swapped) == [0, 3, 2, 1]


def test_size_mismatch(unit_square, triangle):
    with pytest.raises(SizeMismatchError):
        same_order_type_labeled(unit_square, triangle)
    with pytest.raises(SizeMismatchError):
        compare_exit_structures(unit_square, triangle)


def test_bijection_search_capped():
    rng = random.Random(0)
    big = random_general_position(9, rng)
    with pytest.raises(ValueError):
        find_order_type_bijection(big, big)


def test_compare_same_and_different(unit_square, triangle_with_interior):
    same = compare_exit_structures(unit_square, unit_square)
    assert same.same_exit_structure and same.same_order_type
    diff = compare_exit_structures(unit_square, triangle_with_interior)
    assert not diff.same_exit_structure
    assert not diff.same_order_type
    assert diff.first_orientation_mismatch is not None


def test_compare_separates_exit_structure_from_order_type(unit_square):
    # the mirrored square keeps the labeled exit structure (diagonals,
    # same witnesses) while every triple orientation flips
    mirrored = certify_general_position([(0, 1), (1, 1), (1, 0), (0, 0)])
    rep = compare_exit_structures(unit_square, mirrored)
    assert rep.same_exit_structure
    assert not rep.same_order_type
    assert rep.first_orientation_mismatch == (0, 1, 2)


def test_search_deterministic_and_bounded():
    a = search_min_exit_edges(9, 8, seed=5)
    b = search_min_exit_edges(9, 8, seed=5)
    assert a[0].points == b[0].points and a[1] == b[1]
    assert a[1] >= 4  # ceil((3*9 - 7)/5)


def _search_reference(n, trials, seed):
    """The search as it ran with random_general_position's certifying
    loop, and the number of drawn sets that certification refused."""
    rng = random.Random(seed)
    best, redraws = None, 0
    for _ in range(trials):
        while True:
            pts = set()
            while len(pts) < n:
                pts.add((rng.randint(0, 4 * n * n), rng.randint(0, 4 * n * n)))
            try:
                ps = certify_general_position(sorted(pts))
                break
            except CollinearTripleError:
                redraws += 1
        count = len(exit_edges_dual(ps))
        if best is None or count < best[1]:
            best = ps, count
    return best, redraws


@pytest.mark.parametrize("n, trials, seed", [(5, 10, 3), (7, 10, 11), (9, 10, 55), (64, 2, 0)])
def test_search_redraws_the_sets_that_certification_refuses(n, trials, seed):
    # the scan, not a certification pass, refuses the collinear draws
    (ps, count), redraws = _search_reference(n, trials, seed)
    assert redraws >= 1
    got_ps, got_count = search_min_exit_edges(n, trials, seed)
    assert got_ps.points == ps.points and got_count == count


def test_search_four_points_reaches_two():
    _, best = search_min_exit_edges(4, 40, seed=2)
    assert best == 2
