import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exitgraph import (
    CollinearTripleError,
    DegenerateLineError,
    DuplicatePointError,
    OnLineError,
    Orientation,
    PointSet,
    SharedEndpointError,
    TooFewPointsError,
    certify_general_position,
    convex_hull,
    line_separates,
    orientation,
    point,
    segments_cross,
    shear_to_generic,
    trusted_point_set,
)
from conftest import mixed_sets, random_sets

P = point


def test_orientation_basis_cases():
    assert orientation(P(0, 0), P(1, 0), P(0, 1)) is Orientation.COUNTERCLOCKWISE
    assert orientation(P(0, 0), P(0, 1), P(1, 0)) is Orientation.CLOCKWISE
    assert orientation(P(0, 0), P(1, 1), P(2, 2)) is Orientation.COLLINEAR


coords = st.integers(min_value=-1000, max_value=1000)
points = st.builds(lambda x, y: P(x, y), coords, coords)


@given(points, points, points)
def test_orientation_antisymmetric_under_swaps(p, q, r):
    o = orientation(p, q, r)
    for swapped in ((q, p, r), (p, r, q), (r, q, p)):
        assert orientation(*swapped).value == -o.value


@given(points, points, points, coords, coords,
       st.integers(min_value=1, max_value=50),
       st.fractions(min_value=-3, max_value=3, max_denominator=7))
def test_orientation_invariant_under_affine_maps(p, q, r, tx, ty, scale, lam):
    o = orientation(p, q, r)

    def translate(pt):
        return P(pt.x + tx, pt.y + ty)

    def rescale(pt):
        return P(pt.x * scale, pt.y * scale)

    def shear(pt):
        return P(pt.x + lam * pt.y, pt.y)

    for f in (translate, rescale, shear):
        assert orientation(f(p), f(q), f(r)) is o


def test_certify_square_and_six_point_set(six_points):
    certify_general_position([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(six_points) == 6  # the fixture certifies on construction


def test_certify_reports_first_collinear_triple():
    with pytest.raises(CollinearTripleError) as err:
        certify_general_position([(0, 0), (1, 1), (2, 2), (5, 0)])
    assert err.value.labels == (0, 1, 2)


def test_certify_reports_first_duplicate():
    with pytest.raises(DuplicatePointError) as err:
        certify_general_position([(0, 0), (1, 2), (0, 0), (1, 2)])
    assert err.value.labels == (0, 2)


def _lcm_grid(points):
    """Reference grid form: (x*s, y*s) per point, s the lcm of every
    coordinate's denominator, all in Fractions."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    scale = lcm(1, *(v.denominator for p in pts for v in p))
    return tuple((int(x * scale), int(y * scale)) for x, y in pts), scale


def _certify_cubic(points):
    """Reference certification: the first coinciding pair by a pair loop,
    then the plain triple loop over labels, on the reference lcm grid."""
    grid, scale = _lcm_grid(points)
    n = len(grid)
    for i in range(n):
        for j in range(i + 1, n):
            if grid[i] == grid[j]:
                raise DuplicatePointError(i, j)
    for i in range(n):
        xi, yi = grid[i]
        for j in range(i + 1, n):
            dx1 = grid[j][0] - xi
            dy1 = grid[j][1] - yi
            for k in range(j + 1, n):
                if dx1 * (grid[k][1] - yi) == dy1 * (grid[k][0] - xi):
                    raise CollinearTripleError(i, j, k)
    return PointSet(grid, scale)


def _outcome(certify, pts):
    try:
        return certify(pts)
    except (DuplicatePointError, CollinearTripleError) as err:
        return type(err), err.labels


@pytest.mark.parametrize("pts, labels", [
    # the first repeated direction from 0 is labels 2, 3; the first triple is (0, 1, 4)
    ([(0, 0), (1, 1), (1, 2), (2, 4), (3, 3)], (0, 1, 4)),
    # label 0 lies between 1 and 2: opposite directions must share a key
    ([(0, 0), (1, 1), (-2, -2), (5, 0)], (0, 1, 2)),
    # vertical line through 0
    ([(0, 0), (3, 1), (0, 2), (0, -7)], (0, 2, 3)),
    # beyond int64: the test runs on exact integers
    ([(2**70, 2**70 + 1), (2**70 + 5, 3), (2**70 + 3, 2**70 + 7),
      (-2**70, 2**69), (2**70 + 9, 2**70 + 19)], (0, 2, 4)),
])
def test_certify_first_collinear_triple_fixed_cases(pts, labels):
    for certify in (certify_general_position, _certify_cubic):
        with pytest.raises(CollinearTripleError) as err:
            certify(pts)
        assert err.value.labels == labels


def _random_coordinate(rng):
    if rng.random() < 0.3:
        q = rng.randint(2, 5)
        return Fraction(rng.randint(-6 * q, 6 * q), q)
    return rng.randint(-6, 6)


def test_certify_matches_cubic_reference():
    rng = random.Random(3030)
    raised = {DuplicatePointError: 0, CollinearTripleError: 0, PointSet: 0}
    for _ in range(3000):
        n = rng.randint(3, 14)
        pts = [(_random_coordinate(rng), _random_coordinate(rng)) for _ in range(n)]
        expected = _outcome(_certify_cubic, pts)
        assert _outcome(certify_general_position, pts) == expected, pts
        raised[expected[0] if isinstance(expected, tuple) else PointSet] += 1
    # the corpus exercises all three outcomes
    assert min(raised.values()) >= 100, raised


_HUGE = 2 ** 1100


@pytest.mark.parametrize("points", [
    [(0, 0), (5, -2), (3, 7)],
    [("0", "-1/2"), ("5/6", "2"), ("3", "7/4")],
    [(Fraction(1, 3), Fraction(-2, 9)), (Fraction(4), Fraction(5, 6)), (2, 1)],
    [(1, "2/3"), (Fraction(5, 7), -4), ("-9/14", Fraction(1, 6))],
    [(3 * _HUGE, -_HUGE), (Fraction(_HUGE, 7), 5), ("1/" + str(_HUGE), 2)],
])
def test_grid_and_scale_match_lcm_reference(points):
    ps = trusted_point_set(points)
    assert (ps.int_coords, ps.scale) == _lcm_grid(points)
    assert all(type(v) is int for p in ps.int_coords for v in p)
    assert [tuple(p) for p in ps.points] == [(Fraction(x), Fraction(y)) for x, y in points]


def test_equal_sets_from_different_input_forms_are_equal():
    forms = [
        [(Fraction(1, 2), 3), (2, Fraction(-4, 6)), (0, 0)],
        [("1/2", "3"), ("2", "-2/3"), ("0", "0")],
        [(Fraction(1, 2), Fraction(3)), (Fraction(2), Fraction(-2, 3)), (Fraction(0), 0)],
        [point("1/2", 3), point(2, "-2/3"), point(0, 0)],
        PointSet(((3, 18), (12, -4), (0, 0)), 6).points,
    ]
    sets = [trusted_point_set(f) for f in forms]
    sets.append(PointSet(((6, 36), (24, -8), (0, 0)), 12))  # reduced on construction
    for ps in sets:
        assert ps == sets[0] and hash(ps) == hash(sets[0])
        assert ps.int_coords == ((3, 18), (12, -4), (0, 0)) and ps.scale == 6
    assert trusted_point_set([(1, 0), (0, 1), (1, 1)]) != trusted_point_set([(2, 0), (0, 2), (2, 2)])
    with pytest.raises(ValueError):
        PointSet(((0, 0),), 0)


def test_points_round_trip():
    for _kind, ps in mixed_sets(30, 3, 12, seed=4242):
        assert trusted_point_set(ps.points) == ps
        assert all(ps[i] == p for i, p in enumerate(ps.points))
        for (x, y), p in zip(ps.int_coords, ps.points):
            assert (p.x * ps.scale, p.y * ps.scale) == (x, y)


def test_sheared_grid_matches_fraction_shear():
    rng = random.Random(5151)
    nonzero = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        q = rng.randint(1, 4)
        # few distinct x values force a shear; denominators exercise the
        # reduction of (q*x + p*y, q*y) over q*scale
        pts = {(Fraction(rng.randint(-2, 2), q), Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
               for _ in range(n)}
        ps = trusted_point_set(sorted(pts))
        sheared, lam = shear_to_generic(ps)
        expected = trusted_point_set([(p.x + lam * p.y, p.y) for p in ps.points])
        assert (sheared.int_coords, sheared.scale) == (expected.int_coords, expected.scale)
        assert (sheared.int_coords, sheared.scale) == _lcm_grid(expected.points)
        nonzero += lam != 0
    assert nonzero >= 150


def test_hull_square_and_triangle(unit_square, triangle):
    assert convex_hull(unit_square) == [0, 1, 2, 3]
    assert convex_hull(triangle) == [0, 1, 2]


def test_hull_six_point_set(six_points):
    hull = convex_hull(six_points)
    assert hull == [2, 3, 1, 0]  # CCW from the lexicographically smallest
    assert set(range(6)) - set(hull) == {4, 5}


def test_hull_requires_three_points():
    with pytest.raises(TooFewPointsError):
        convex_hull(certify_general_position([(0, 0), (1, 0)]))


def test_hull_is_convex_and_contains_interior_points():
    for ps in random_sets(25, 4, 11, seed=101):
        hull = convex_hull(ps)
        h = len(hull)
        for t in range(h):
            a, b, c = hull[t], hull[(t + 1) % h], hull[(t + 2) % h]
            assert orientation(ps[a], ps[b], ps[c]) is Orientation.COUNTERCLOCKWISE
        inner = set(ps.labels()) - set(hull)
        for i in inner:
            for t in range(h):
                a, b = hull[t], hull[(t + 1) % h]
                assert orientation(ps[a], ps[b], ps[i]) is Orientation.COUNTERCLOCKWISE


def test_line_separates_cases():
    assert line_separates(P(0, 0), P(1, 0), P(0, 1), P(0, -1)) is True
    assert line_separates(P(0, 0), P(1, 0), P(0, 1), P(2, 1)) is False
    with pytest.raises(OnLineError):
        line_separates(P(0, 0), P(1, 0), P(2, 0), P(0, 1))
    with pytest.raises(DegenerateLineError):
        line_separates(P(1, 1), P(1, 1), P(0, 0), P(2, 2))


def test_shear_leaves_distinct_x_untouched(triangle):
    sheared, lam = shear_to_generic(triangle)
    assert lam == 0
    assert sheared.points == triangle.points


def test_shear_square_picks_one_half(unit_square):
    sheared, lam = shear_to_generic(unit_square)
    assert lam == Fraction(1, 2)
    assert [tuple(p) for p in sheared.points] == [
        (0, 0), (1, 0), (Fraction(3, 2), 1), (Fraction(1, 2), 1)]


def test_shear_preserves_all_triple_orientations():
    for ps in random_sets(20, 3, 10, seed=202):
        sheared, _ = shear_to_generic(ps)
        certify_general_position(sheared.points)
        n = len(ps)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    assert orientation(ps[i], ps[j], ps[k]) is orientation(
                        sheared[i], sheared[j], sheared[k])
        xs = {p.x for p in sheared.points}
        assert len(xs) == n


def test_segments_cross_cases():
    assert segments_cross(P(0, 0), P(1, 1), P(1, 0), P(0, 1)) is True
    assert segments_cross(P(0, 0), P(1, 0), P(0, 1), P(1, 1)) is False
    assert segments_cross(P(0, 0), P(2, 0), P(1, 1), P(1, 2)) is False
    with pytest.raises(SharedEndpointError):
        segments_cross(P(0, 0), P(1, 1), P(0, 0), P(1, 0))
