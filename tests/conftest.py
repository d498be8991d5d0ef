import random
from fractions import Fraction

import pytest

from exitgraph import (
    CollinearTripleError,
    DuplicatePointError,
    certify_general_position,
    random_general_position,
)


@pytest.fixture
def triangle():
    return certify_general_position([(0, 0), (4, 0), (2, 4)])


@pytest.fixture
def unit_square():
    return certify_general_position([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture
def six_points():
    # four corners with two interior points close to the left edge
    return certify_general_position(
        [(-5, 5), (5, 5), (-5, -5), (5, -5), (-3, 2), (-3, -2)])


@pytest.fixture
def triangle_with_interior():
    return certify_general_position([(0, 0), (4, 0), (2, 4), (2, 1)])


def random_sets(count, n_lo, n_hi, seed):
    """Deterministic stream of certified random point sets."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        yield random_general_position(n, rng)


KINDS = ("int", "rational", "big")
_BIG = 1 << 66


def _coordinate(kind, rng, n):
    # the small integer grid makes shared x and y common: horizontal and
    # vertical edges, and rays through vertices; from 64 points on, a
    # 3n x 3n grid almost always holds a collinear triple, so the side
    # grows to n^2
    if kind == "int":
        return rng.randint(0, 3 * n if n < 64 else n * n)
    if kind == "rational":
        return Fraction(rng.randint(-4 * n * n, 4 * n * n), rng.randint(1, 9))
    return _BIG + rng.randint(0, 4 * n * n) * (1 << 30)


def mixed_sets(count, n_lo, n_hi, seed, kinds=KINDS):
    """Certified sets with small integer, p/q and above-2^64 coordinates,
    the kinds in turn."""
    rng = random.Random(seed)
    for k in range(count):
        kind = kinds[k % len(kinds)]
        n = rng.randint(n_lo, n_hi)
        while True:
            pts = [(_coordinate(kind, rng, n), _coordinate(kind, rng, n)) for _ in range(n)]
            try:
                yield kind, certify_general_position(pts)
                break
            except (CollinearTripleError, DuplicatePointError):
                continue


def grid_sets(ns, seed, scale=1):
    """Seeded lists of n distinct integer points, neither certified nor
    redrawn, three per n in ns: "dense" on a grid of side n (collinear
    triples nearly always), "wide" on a grid of side 4n^2 (rarely), and
    "planted", a wide draw with a third point put on the line through
    two others.  The labels are shuffled, so a collinear triple can sit
    anywhere; every coordinate is multiplied by scale."""
    rng = random.Random(seed)
    for n in ns:
        for kind in ("dense", "wide", "planted"):
            side = n if kind == "dense" else 4 * n * n
            drawn: set[tuple[int, int]] = set()
            while len(drawn) < n:
                drawn.add((rng.randint(0, side), rng.randint(0, side)))
            pts = sorted(drawn)
            rng.shuffle(pts)
            if kind == "planted":
                (x0, y0), (x1, y1) = pts[0], pts[1]
                third = (2 * x1 - x0, 2 * y1 - y0)
                if third not in drawn:  # else the three are collinear already
                    pts[2] = third
                rng.shuffle(pts)
            yield kind, [(x * scale, y * scale) for x, y in pts]
