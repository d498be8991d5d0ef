from fractions import Fraction

import pytest

from exitgraph import (
    DualLine,
    build_arrangement,
    convex_hull,
    dual_triangles,
    dualize,
    line_triangle_counts,
    marked_cell,
    marked_cell_by_orientation,
    orient_lines,
    peel_orientation,
    shear_to_generic,
    triangular_cells,
    crossing_halfplane_has_private_triangle,
)
from conftest import KINDS, mixed_sets, random_sets


def _dual_arrangement(ps):
    sheared, _ = shear_to_generic(ps)
    return build_arrangement(dualize(sheared))


def _line(slope, intercept, source):
    return DualLine(Fraction(slope), Fraction(intercept), source)


def test_two_lines():
    arr = build_arrangement([_line(0, 0, 0), _line(1, 0, 1)])
    assert arr.counts() == (1, 2, 2)
    assert marked_cell(arr) == marked_cell_by_orientation(arr)


def test_three_lines_all_cells_triangular():
    arr = build_arrangement([_line(0, 0, 0), _line(-1, 2, 1), _line(1, 2, 2)])
    assert arr.counts() == (3, 6, 4)
    assert sorted(c.side_count for c in arr.cells) == [3, 3, 3, 3]
    tris = triangular_cells(arr)
    assert len(tris) == 4 and sum(t.marked for t in tris) == 1


def test_triangle_point_set_dual(triangle):
    arr = _dual_arrangement(triangle)
    tris = triangular_cells(arr)
    assert len(tris) == 4
    assert sum(t.marked for t in tris) == 1
    marked = arr.cells[marked_cell(arr)]
    assert marked.side_count == 3


def test_square_marked_cell_not_triangular(unit_square):
    arr = _dual_arrangement(unit_square)
    assert arr.cells[marked_cell(arr)].side_count == 4
    tris = triangular_cells(arr)
    assert len(tris) == 4 and not any(t.marked for t in tris)


def test_counts_and_euler_relation():
    for ps in random_sets(40, 4, 12, seed=333):
        n = len(ps)
        arr = _dual_arrangement(ps)
        V, E, F = arr.counts()
        assert V == n * (n - 1) // 2
        assert E == n * (n - 1)
        assert F == 1 + n * (n - 1) // 2
        assert V - E + F == 1


def test_each_edge_borders_two_cells():
    for ps in random_sets(10, 4, 9, seed=444):
        arr = _dual_arrangement(ps)
        uses = {}
        for cell in arr.cells:
            for eid, d in cell.boundary:
                uses.setdefault(eid, []).append(d)
        assert set(uses) == set(range(len(arr.edges)))
        assert all(len(v) == 2 for v in uses.values())


def test_marked_cell_is_unique_consistent_cell():
    for ps in random_sets(30, 3, 12, seed=555):
        arr = _dual_arrangement(ps)
        consistent = [c.index for c in arr.cells if c.consistently_oriented()]
        assert consistent == [marked_cell(arr)]
        assert marked_cell_by_orientation(arr) == marked_cell(arr)


def test_marked_cell_lies_on_the_hull_lines():
    # dual_triangles and stats_report take the marked cell from the hull:
    # its lines are the duals of the hull's vertices, one side each
    kinds = dict.fromkeys(KINDS, 0)
    hull_sizes = set()
    for kind, ps in mixed_sets(90, 3, 14, seed=4242):
        arr = _dual_arrangement(ps)
        hull = convex_hull(ps)
        marked = arr.cells[marked_cell(arr)]
        assert arr.cell_lines(marked) == set(hull)
        assert marked.side_count == len(hull)
        kinds[kind] += 1
        hull_sizes.add(len(hull))
    assert all(v == 30 for v in kinds.values())
    assert {3, 4, 5, 6} <= hull_sizes


def test_full_complex_matches_fast_scan():
    for ps in random_sets(30, 3, 11, seed=666):
        arr = _dual_arrangement(ps)
        full = {(t.lines, t.marked, t.exit_vertex, t.witness_line)
                for t in triangular_cells(arr)}
        fast = {(t.lines, t.marked, t.exit_vertex, t.witness_line)
                for t in dual_triangles(ps)}
        assert full == fast


def test_every_line_touches_three_triangles():
    for ps in random_sets(30, 4, 12, seed=777):
        arr = _dual_arrangement(ps)
        assert all(c >= 3 for c in line_triangle_counts(arr).values())


def test_exit_vertex_is_median_x_on_bounded_triangles():
    for ps in random_sets(20, 4, 10, seed=888):
        arr = _dual_arrangement(ps)
        for t in triangular_cells(arr):
            if t.marked:
                continue
            infinite = any(arr.edges[e].infinite for e, _ in
                           arr.cells[t.cell_index].boundary)
            if infinite:
                continue
            xs = sorted((arr.vertices[v].position[0], v) for v in t.vertex_ids)
            assert xs[1][1] == t.exit_vertex_id


def test_orientation_peeling_matches_left_to_right():
    for ps in random_sets(12, 3, 9, seed=999):
        arr = _dual_arrangement(ps)
        assert peel_orientation(arr) == orient_lines(arr)
        reversed_ = peel_orientation(arr, eastward=False)
        assert reversed_ == {k: -v for k, v in orient_lines(arr).items()}


def test_halfplane_triangle_property_sampled():
    import random as _random
    rng = _random.Random(1212)
    for ps in random_sets(20, 5, 11, seed=1212):
        arr = _dual_arrangement(ps)
        srcs = [l.source for l in arr.lines]
        for _ in range(4):
            u, v = rng.sample(srcs, 2)
            assert crossing_halfplane_has_private_triangle(arr, u, v)


def test_arrangement_requires_two_lines():
    with pytest.raises(ValueError):
        build_arrangement([_line(1, 0, 0)])
