from array import array
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from exitgraph import (
    LabelOutOfRangeError,
    NonDistinctLabelsError,
    convex_hull,
    enumerate_four_holes,
    exit_edges_bruteforce,
    exit_edges_dual,
    exit_edges_via_holes,
    four_holes_at_edge,
    is_exit_edge_with_witness,
    shear_to_generic,
    trusted_point_set,
    witness_side,
)
from exitgraph.oracle import FourHole, internal_edge_has_two_sided_support
from conftest import mixed_sets, random_sets


def test_triangle_every_pair_vacuously_exits(triangle):
    assert is_exit_edge_with_witness(triangle, 0, 1, 2)
    edges = exit_edges_bruteforce(triangle)
    assert [(e.endpoints, set(e.witnesses)) for e in edges] == [
        ((0, 1), {2}), ((0, 2), {1}), ((1, 2), {0})]


def test_square_witness_cases(unit_square):
    # diagonal 0-2 admits 1; side 0-1 is blocked by the line through 1 and 3
    assert is_exit_edge_with_witness(unit_square, 0, 2, 1) is True
    assert is_exit_edge_with_witness(unit_square, 0, 1, 2) is False


def test_square_exit_edges_are_the_diagonals(unit_square):
    edges = exit_edges_bruteforce(unit_square)
    assert [(e.endpoints, set(e.witnesses)) for e in edges] == [
        ((0, 2), {1, 3}), ((1, 3), {0, 2})]


def test_label_validation(unit_square):
    with pytest.raises(LabelOutOfRangeError):
        is_exit_edge_with_witness(unit_square, 0, 1, 9)
    with pytest.raises(NonDistinctLabelsError):
        is_exit_edge_with_witness(unit_square, 0, 1, 1)


def test_witness_count_is_one_or_two():
    for ps in random_sets(40, 4, 11, seed=303):
        for e in exit_edges_bruteforce(ps):
            assert 1 <= len(e.witnesses) <= 2


def test_exit_edge_excludes_rotated_roles():
    # with |S| >= 4, ab exiting with witness c forbids ac with witness b
    # and bc with witness a
    for ps in random_sets(25, 4, 9, seed=404):
        n = len(ps)
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(n):
                    if c in (a, b):
                        continue
                    if is_exit_edge_with_witness(ps, a, b, c):
                        assert not is_exit_edge_with_witness(ps, a, c, b)
                        assert not is_exit_edge_with_witness(ps, b, c, a)


def _point_strictly_inside_simple_quad(ps, cycle, p):
    """Independent ray-parity check used to audit reported 4-holes."""
    px, py = ps[p].x, ps[p].y
    crossings = 0
    for t in range(4):
        a, b = ps[cycle[t]], ps[cycle[(t + 1) % 4]]
        if (a.y <= py < b.y) or (b.y <= py < a.y):
            xs = a.x + (py - a.y) * (b.x - a.x) / (b.y - a.y)
            if xs > px:
                crossings += 1
    return crossings % 2 == 1


def test_reported_four_holes_are_simple_and_empty():
    for ps in random_sets(12, 8, 8, seed=505):
        holes = enumerate_four_holes(ps)
        assert holes
        for h in holes:
            outside = set(ps.labels()) - set(h.vertices)
            for p in outside:
                assert not _point_strictly_inside_simple_quad(ps, h.vertices, p)
            # counterclockwise traversal
            area2 = Fraction(0)
            for t in range(4):
                a, b = ps[h.vertices[t]], ps[h.vertices[(t + 1) % 4]]
                area2 += a.x * b.y - b.x * a.y
            assert area2 > 0


def _turn(ps, a, b, c):
    """Twice the signed area of triangle abc, on the Fraction points."""
    pa, pb, pc = ps[a], ps[b], ps[c]
    return (pb.x - pa.x) * (pc.y - pa.y) - (pb.y - pa.y) * (pc.x - pa.x)


def _sides_cross(ps, a, b, c, d):
    return _turn(ps, a, b, c) * _turn(ps, a, b, d) < 0 and _turn(ps, c, d, a) * _turn(ps, c, d, b) < 0


def _inside_triangle(ps, p, a, b, c):
    return len({_turn(ps, a, b, p) > 0, _turn(ps, b, c, p) > 0, _turn(ps, c, a, p) > 0}) == 1


def _four_holes_by_definition(ps):
    """Every 4-cycle whose opposite sides do not cross and that has no
    other point strictly inside, made counterclockwise by the sign of its
    shoelace area and rotated to its smallest label; the reflex vertex is
    the one inside the triangle of the other three."""
    holes = []
    for quad in combinations(ps.labels(), 4):
        i, j, k, l = quad
        for cycle in ((i, j, k, l), (i, k, j, l), (i, j, l, k)):
            a, b, c, d = cycle
            if _sides_cross(ps, a, b, c, d) or _sides_cross(ps, b, c, d, a):
                continue
            if any(_point_strictly_inside_simple_quad(ps, cycle, p)
                   for p in ps.labels() if p not in quad):
                continue
            area2 = sum(ps[cycle[t]].x * ps[cycle[(t + 1) % 4]].y
                        - ps[cycle[(t + 1) % 4]].x * ps[cycle[t]].y for t in range(4))
            if area2 < 0:
                cycle = (a, d, c, b)
            start = cycle.index(min(cycle))
            verts = cycle[start:] + cycle[:start]
            reflex = [v for v in verts if _inside_triangle(ps, v, *(u for u in verts if u != v))]
            holes.append(FourHole(verts, convex=not reflex,
                                  reflex_vertex=reflex[0] if reflex else None))
    return sorted(holes, key=lambda h: h.vertices)


def test_four_holes_match_the_definition():
    kinds = set()
    sets = [*random_sets(20, 4, 10, seed=909)]
    for kind, ps in mixed_sets(12, 4, 10, seed=910):
        kinds.add(kind)
        sets.append(ps)
    assert kinds == {"int", "rational", "big"}
    nonconvex = 0
    for ps in sets:
        holes = enumerate_four_holes(ps)
        assert holes == _four_holes_by_definition(ps)
        nonconvex += sum(not h.convex for h in holes)
    assert nonconvex > 100, nonconvex


def test_four_holes_at_edge_square_and_triangle(unit_square, triangle):
    holes = four_holes_at_edge(unit_square, 0, 1)
    assert len(holes) == 1 and holes[0].convex
    assert set(holes[0].vertices) == {0, 1, 2, 3}
    assert four_holes_at_edge(triangle, 0, 1) == []


def test_hole_characterization_square(unit_square):
    assert exit_edges_via_holes(unit_square) == frozenset({(0, 2), (1, 3)})


def test_hole_characterization_triangle(triangle):
    assert exit_edges_via_holes(triangle) == frozenset({(0, 1), (0, 2), (1, 2)})


def test_hole_characterization_matches_bruteforce():
    for ps in random_sets(80, 4, 10, seed=606):
        brute_pairs = frozenset(e.endpoints for e in exit_edges_bruteforce(ps))
        assert exit_edges_via_holes(ps) == brute_pairs
    for ps in random_sets(6, 13, 14, seed=607):
        brute_pairs = frozenset(e.endpoints for e in exit_edges_bruteforce(ps))
        assert exit_edges_via_holes(ps) == brute_pairs


def test_oracles_agree_with_both_backends_from_64_points():
    # from 64 points exit_edges_dual runs the numpy scan, and on a copy
    # scaled by 2^40 the pure-Python big-coordinate scan; a positive scale
    # keeps every orientation, so the oracles run on the unscaled set only
    for ps in random_sets(10, 64, 96, seed=6496):
        brute = exit_edges_bruteforce(ps)
        dual = exit_edges_dual(ps)
        assert isinstance(dual.a, np.ndarray)
        assert dual == brute
        assert exit_edges_via_holes(ps) == frozenset(e.endpoints for e in brute)
        big = trusted_point_set([(p.x * 2 ** 40, p.y * 2 ** 40) for p in ps.points])
        big_dual = exit_edges_dual(big)
        assert isinstance(big_dual.a, array)
        assert big_dual == brute


def test_exit_edges_invariant_under_shear():
    for ps in random_sets(15, 4, 9, seed=707):
        sheared, _ = shear_to_generic(ps)
        assert exit_edges_bruteforce(ps) == exit_edges_bruteforce(sheared)


def test_six_point_set_edges(six_points):
    edges = exit_edges_bruteforce(six_points)
    assert [(e.endpoints, set(e.witnesses)) for e in edges] == [
        ((0, 3), {1, 4}), ((0, 5), {4}), ((1, 2), {3, 5}), ((2, 4), {5})]


def test_internal_exit_edge_diagnostic():
    checked = 0
    for ps in random_sets(30, 5, 9, seed=808):
        hull = convex_hull(ps)
        hull_edges = {tuple(sorted((hull[i], hull[(i + 1) % len(hull)])))
                      for i in range(len(hull))}
        for e in exit_edges_bruteforce(ps):
            if e.endpoints in hull_edges:
                continue
            assert internal_edge_has_two_sided_support(ps, e)
            checked += 1
    assert checked > 10


def test_witness_side_signs(unit_square):
    assert witness_side(unit_square, 0, 2, 3) == 1
    assert witness_side(unit_square, 0, 2, 1) == -1


def test_exit_edge_type_invariants():
    from exitgraph import ExitEdge

    with pytest.raises(ValueError):
        ExitEdge((1, 0), frozenset({2}))  # endpoints must be sorted
    with pytest.raises(ValueError):
        ExitEdge((0, 1), frozenset({2, 3, 4}))  # at most two witnesses
    with pytest.raises(ValueError):
        ExitEdge((0, 1), frozenset())  # at least one witness
    with pytest.raises(ValueError):
        ExitEdge((0, 1), frozenset({1}))  # witness distinct from endpoints
