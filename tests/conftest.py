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
