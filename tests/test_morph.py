import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from exitgraph import (
    ImmediateDegeneracyError,
    QuadraticRoot,
    SizeMismatchError,
    exit_edges_bruteforce,
    first_collinearity_morph,
    point,
    random_general_position,
    same_order_type_labeled,
    trusted_point_set,
)


def test_single_moving_point_event(triangle_with_interior):
    target = [point(0, 0), point(4, 0), point(2, 4), point(2, -1)]
    ev = first_collinearity_morph(triangle_with_interior, target)
    assert ev is not None
    assert ev.time.equals(Fraction(1, 2))
    assert ev.triple == (0, 1, 3)
    assert ev.between
    edges = {e.endpoints: e.witnesses
             for e in exit_edges_bruteforce(triangle_with_interior)}
    assert 3 in edges[(0, 1)]


def test_no_motion_no_event(triangle_with_interior):
    ev = first_collinearity_morph(
        triangle_with_interior, triangle_with_interior.points)
    assert ev is None


def test_simultaneous_events_take_smallest_triple():
    # two points cross the base line at the same instant
    ps = trusted_point_set([(0, 0), (4, 0), (1, 1), (3, 1)])
    target = [point(0, 0), point(4, 0), point(1, -1), point(3, -1)]
    ev = first_collinearity_morph(ps, target)
    assert ev.time.equals(Fraction(1, 2))
    assert ev.triple == (0, 1, 2)
    assert ev.between


def test_immediate_degeneracy_detected():
    bad = trusted_point_set([(0, 0), (1, 1), (2, 2), (5, 0)])
    with pytest.raises(ImmediateDegeneracyError) as err:
        first_collinearity_morph(bad, bad.points)
    assert err.value.labels == (0, 1, 2)


def test_size_mismatch(triangle_with_interior):
    with pytest.raises(SizeMismatchError):
        first_collinearity_morph(triangle_with_interior, [point(0, 0)])


def test_quadratic_root_ordering():
    sqrt2_minus_1 = QuadraticRoot.make(-1, 1, 2, 1)
    half = QuadraticRoot.make(1, 0, 0, 2)
    other = QuadraticRoot.make(-3, 1, 13, 2)  # (sqrt(13) - 3)/2
    assert other < sqrt2_minus_1 < half
    assert half > other
    assert sqrt2_minus_1 <= sqrt2_minus_1
    assert half.equals(Fraction(1, 2))
    assert QuadraticRoot.make(2, 3, 4, 4) == QuadraticRoot(2, 0, 0, 1)  # sqrt(4) folds to 2
    assert 0.41 < float(sqrt2_minus_1) < 0.415


def test_quadratic_root_near_ties_resolved_exactly():
    # sqrt(101) - 10 vs 1/20: differ only in the fourth decimal
    a = QuadraticRoot.make(-10, 1, 101, 1)
    b = QuadraticRoot.make(1, 0, 0, 20)
    assert a < b and not b < a
    # and two conjugate-looking surds on either side of a rational
    c = QuadraticRoot.make(-7, 1, 50, 1)  # sqrt(50) - 7 ~ 0.0710
    d = QuadraticRoot.make(5, 1, 2, 88)  # (5 + sqrt2)/88 ~ 0.0729
    assert c < d


def test_quadratic_root_float_is_one_rounding_of_the_exact_value():
    # p and q*sqrt(d) nearly cancel, or every term is past the float range
    roots = [QuadraticRoot.make(-(10 ** 30), 1, 10 ** 60 + 1, 1),  # ~5e-31
             QuadraticRoot.make(10 ** 40, -1, 10 ** 80 - 7, 3),
             QuadraticRoot.make(3 << 1100, -1, 5 << 2200, 7 << 1100),  # (3 - sqrt5)/7
             QuadraticRoot.make(-1, 1, 2, 1 << 1100),  # below the float range: 0.0
             # just above the halfway point 1 + 2^-53: the floor of value * 2^64
             # is that point, and rounding it would round to even, down to 1
             QuadraticRoot.make((1 << 100) + (1 << 47) - 1, 1, 2, 1 << 100),
             QuadraticRoot.make(-7803, 536, 212, 90)]  # ~0.0142: p and q*sqrt(d) near-cancel
    for t in roots:
        with localcontext() as ctx:
            ctx.prec = 200
            ref = (Decimal(t.p) + Decimal(t.q) * Decimal(t.d).sqrt()) / Decimal(t.r)
        assert float(t) == float(ref), t
    assert roots[2].d > 1 << 2200 and float(roots[0]) > 0 and float(roots[3]) == 0.0
    assert float(roots[4]) == 1 + 2 ** -52


def test_quadratic_root_significant_digits_are_exact():
    # far below the float range: halfway ties round to even, a round-up
    # carries into the exponent, and p and q*sqrt(d) nearly cancel
    r = QuadraticRoot.make
    cases = [(r(1000005, 0, 0, 10 ** 343), "1e-337"),
             (r(1000015, 0, 0, 10 ** 343), "1.00002e-337"),
             (r(9999995, 0, 0, 10 ** 343), "1e-336"),
             (r(15, 0, 0, 10 ** 400), "1.5e-399"),
             (r(1, 0, 0, 3 * 10 ** 330), "3.33333e-331"),
             (r(-(10 ** 200), 1, 10 ** 400 + 7, 2 * 10 ** 200), "1.75e-400"),
             (r(10 ** 200, -1, 10 ** 400 - 7, 2 * 10 ** 200), "1.75e-400"),
             (r(10 ** 100, -1, 10 ** 200 - 7, 1), "3.5e-100"),
             (r(-1, 1, 2, 1 << 1100), "3.0495e-332"),
             # fixed notation down to 1e-4, as %g writes it; 447/3200 is
             # 0.1396875 exactly, which rounds half-even up (its float is
             # below it and writes 0.139687)
             (r(1, 0, 0, 2), "0.5"),
             (r(-1, 1, 2, 1), "0.414214"),
             (r(1, 0, 0, 1), "1"),
             (r(1, 0, 0, 10 ** 4), "0.0001"),
             (r(1, 0, 0, 10 ** 5), "1e-05"),
             (r(447, 0, 0, 3200), "0.139688")]
    for t, text in cases:
        assert t.significant(6) == text, t
    # where float's .6g writes the exponent form, it writes the same text
    for t in (r(2, 0, 0, 3 * 10 ** 5), r(-1, 1, 2, 1 << 1000), r(-(10 ** 30), 1, 10 ** 60 + 1, 1)):
        assert t.significant(6) == f"{float(t):.6g}", t


@pytest.mark.parametrize("t, digits", [(QuadraticRoot.make(-1, 0, 0, 2), 6),
                                       (QuadraticRoot.make(0, 0, 0, 1), 6),
                                       (QuadraticRoot.make(2 * 10 ** 6, 0, 0, 1), 6),
                                       (QuadraticRoot.make(1, 0, 0, 2), 0)],
                         ids=["-1/2", "0", "2e6", "no digits"])
def test_quadratic_root_significant_digits_refuse_out_of_range_arguments(t, digits):
    with pytest.raises(ValueError):
        t.significant(digits)


@pytest.mark.parametrize("target, time, triple, between", [
    # a vertical line x = 0 at t = 1/2: only the y coordinates tell that
    # point 2 lies strictly between points 0 and 1
    ([(0, 0), (0, 4), (-2, 2)], Fraction(1, 2), (0, 1, 2), True),
    # point 2 meets point 1 at t = 1/2: collinear, but nothing is between
    ([(0, 0), (0, 4), (-2, 6)], Fraction(1, 2), (0, 1, 2), False),
], ids=["between", "meets"])
def test_event_middle_point_on_a_vertical_line(target, time, triple, between):
    ps = trusted_point_set([(0, 0), (0, 4), (2, 2)])
    ev = first_collinearity_morph(ps, [point(x, y) for x, y in target])
    assert ev.time.equals(time) and ev.triple == triple and ev.between == between


def test_event_at_the_end_of_the_morph():
    ps = trusted_point_set([(0, 0), (4, 0), (2, 3)])
    ev = first_collinearity_morph(ps, [point(0, 0), point(4, 0), point(2, 0)])
    assert ev.time.equals(1) and ev.triple == (0, 1, 2) and ev.between


def test_between_events_are_exit_edges_with_the_witness():
    rng = random.Random(77)
    seen = 0
    for _ in range(60):
        n = rng.randint(5, 8)
        ps = random_general_position(n, rng)
        span = 4 * n * n
        target = [point(rng.randint(0, span), rng.randint(0, span))
                  for _ in range(n)]
        ev = first_collinearity_morph(ps, target)
        if ev is None or not ev.between:
            continue
        seen += 1
        a, b, c = ev.triple
        edges = {e.endpoints: e.witnesses for e in exit_edges_bruteforce(ps)}
        assert (a, b) in edges and c in edges[(a, b)]
    assert seen >= 20


def test_orientations_stable_before_event():
    rng = random.Random(78)
    for _ in range(20):
        n = rng.randint(5, 7)
        ps = random_general_position(n, rng)
        span = 4 * n * n
        target = [point(rng.randint(0, span), rng.randint(0, span))
                  for _ in range(n)]
        ev = first_collinearity_morph(ps, target)
        if ev is None:
            continue
        # a rational instant strictly before the event
        t = Fraction(int(float(ev.time) * 10 ** 9) - 2, 10 ** 9)
        if not (0 < t and ev.time > t):
            continue
        mid = trusted_point_set([
            point(p.x * (1 - t) + q.x * t, p.y * (1 - t) + q.y * t)
            for p, q in zip(ps.points, target)])
        assert same_order_type_labeled(ps, mid)
