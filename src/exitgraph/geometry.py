"""Exact planar geometry primitives over rational coordinates.

Every predicate in this module (and everything built on top of it) is
decided by arbitrary-precision integer arithmetic; sign computations on
almost collinear triples therefore never go wrong.  Floating point
enters at one step only, the sort of the dual crossings along each line
(dual._sorted_rows and fastscan.successor_table_np), and decides
nothing there: a correctly rounded key is a monotone function of the
exact crossing, so keys that differ are in the exact order, and a row
with two equal keys is re-sorted on exact integer keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence, Union

Coordinate = Union[int, str, Fraction]


class GeometryError(Exception):
    """Base class for all domain errors raised by this package."""


class DuplicatePointError(GeometryError):
    def __init__(self, i: int, j: int):
        super().__init__(f"points {i} and {j} coincide")
        self.labels = (i, j)


class CollinearTripleError(GeometryError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"points {i}, {j}, {k} are collinear")
        self.labels = (i, j, k)


class TooFewPointsError(GeometryError):
    pass


class DegenerateLineError(GeometryError):
    pass


class OnLineError(GeometryError):
    pass


class SharedEndpointError(GeometryError):
    pass


class SizeMismatchError(GeometryError):
    pass


class Orientation(Enum):
    """Turn direction of an ordered point triple."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def _frac(value: Coordinate) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, order=True)
class Point:
    """A point with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", _frac(self.x))
        object.__setattr__(self, "y", _frac(self.y))

    def __iter__(self) -> Iterator[Fraction]:
        yield self.x
        yield self.y

    def __repr__(self) -> str:
        return f"Point({self.x}, {self.y})"


def point(x: Coordinate, y: Coordinate) -> Point:
    return Point(_frac(x), _frac(y))


def _rational(value: Coordinate) -> int | Fraction:
    return value if isinstance(value, (int, Fraction)) else _frac(value)


def _grid(pairs: Iterable) -> tuple[tuple[tuple[int, int], ...], int]:
    """(grid, scale) for Points or (x, y) pairs of ints, Fractions or
    text: the least common denominator scale of all coordinates, and
    every coordinate times it.  Ints have a numerator and a denominator
    too, so integer pairs build no Fraction."""
    rows = [(_rational(x), _rational(y)) for x, y in pairs]
    scale = lcm(1, *{v.denominator for row in rows for v in row})
    return tuple((x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
                 for x, y in rows), scale


@dataclass(frozen=True)
class PointSet:
    """An immutable labeled point set; labels are positions 0..n-1.

    Point i is ``int_coords[i]`` divided by the positive integer
    ``scale``.  The constructor divides both by their common factor, so
    the scale is the least common denominator of all coordinates and
    equal point sets have equal fields.  Scaling by a positive number
    preserves every orientation, so all predicates may (and do) run on
    the integers of ``int_coords``; the rational ``Point``s are built
    only when ``points`` or ``ps[i]`` is read.
    """

    int_coords: tuple[tuple[int, int], ...]
    scale: int = 1

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale}")
        g = gcd(self.scale, *(v for p in self.int_coords for v in p))
        if g > 1:
            object.__setattr__(self, "int_coords",
                               tuple((x // g, y // g) for x, y in self.int_coords))
            object.__setattr__(self, "scale", self.scale // g)

    @cached_property
    def points(self) -> tuple[Point, ...]:
        return tuple(Point(Fraction(x, self.scale), Fraction(y, self.scale))
                     for x, y in self.int_coords)

    def __len__(self) -> int:
        return len(self.int_coords)

    def __getitem__(self, label: int) -> Point:
        return self.points[label]

    def labels(self) -> range:
        return range(len(self.int_coords))


@dataclass(frozen=True, order=True)
class ExitEdge:
    """An exit edge: endpoint labels plus its one or two witnesses."""

    endpoints: tuple[int, int]
    witnesses: frozenset[int]

    def __post_init__(self):
        a, b = self.endpoints
        if a >= b:
            raise ValueError("endpoints must be sorted ascending")
        if not 1 <= len(self.witnesses) <= 2:
            raise ValueError("an exit edge has one or two witnesses")
        if a in self.witnesses or b in self.witnesses:
            raise ValueError("witnesses must be disjoint from endpoints")

    def __str__(self) -> str:
        a, b = self.endpoints
        ws = ",".join(str(w) for w in sorted(self.witnesses))
        return f"{{{a},{b}}} witnesses {{{ws}}}"


def orientation(p: Point, q: Point, r: Point) -> Orientation:
    """Exact turn direction of (p, q, r): sign of det(q - p, r - p)."""
    return Orientation(turn((p.x, p.y), (q.x, q.y), (r.x, r.y)))


def turn(p: tuple[int, int], q: tuple[int, int], r: tuple[int, int]) -> int:
    """Turn of (p, q, r) on integer coordinates such as ``int_coords``:
    1 counterclockwise, -1 clockwise, 0 collinear.  Exact for integers of
    any size, and for Fractions."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _first_duplicate(grid: Sequence[tuple[int, int]]) -> tuple[int, int] | None:
    """The lexicographically first pair of labels with equal coordinates."""
    first: dict[tuple[int, int], int] = {}
    pairs = [(first.setdefault(p, i), i) for i, p in enumerate(grid)]
    return min((pair for pair in pairs if pair[0] != pair[1]), default=None)


def _direction(dx: int, dy: int) -> tuple[int, int]:
    """Primitive integer direction of (dx, dy), signed so that dx > 0, or
    dx == 0 and dy > 0: opposite vectors get the same key."""
    g = gcd(dx, dy)
    if dx < 0 or (dx == 0 and dy < 0):
        g = -g
    return dx // g, dy // g


def certify_general_position(points: Iterable) -> PointSet:
    """Validate distinctness and the no-three-collinear condition.

    Raises DuplicatePointError naming the lexicographically first pair of
    coinciding labels; failing that, CollinearTripleError naming the
    lexicographically first collinear triple (i, j, k), i < j < k.

    Runs in expected O(n^2) time: for each label i, the directions to all
    labels j > i are hashed, and a repeated direction is a collinear triple
    whose smallest label is i.  The test runs on ``int_coords``, so it is
    exact for rationals and integers of any size.
    """
    ps = trusted_point_set(points)
    grid = ps.int_coords
    for i, (xi, yi) in enumerate(grid):
        keys = [_direction(x - xi, y - yi) for x, y in grid[i + 1:]]
        if len(set(keys)) < len(keys):
            lines: dict[tuple[int, int], list[int]] = {}
            for j, key in enumerate(keys, start=i + 1):
                lines.setdefault(key, []).append(j)
            j, k = min(line[:2] for line in lines.values() if len(line) > 1)
            raise CollinearTripleError(i, j, k)
    return ps


def trusted_point_set(points: Iterable) -> PointSet:
    """Build a PointSet checking only distinctness, not collinearity.

    Meant for inputs already known to be in general position (shears of
    certified sets), and for inputs whose collinear triples are caught
    downstream: exit_edges_dual raises ConcurrentLinesError on exactly
    those sets, which the CLI's scan commands and the search rely on.
    """
    grid, scale = _grid(points)
    dup = _first_duplicate(grid)
    if dup is not None:
        raise DuplicatePointError(*dup)
    return PointSet(grid, scale)


def convex_hull(ps: PointSet) -> list[int]:
    """Labels of extremal points, counterclockwise, starting from the
    lexicographically smallest point."""
    n = len(ps)
    if n < 3:
        raise TooFewPointsError(f"convex hull needs at least 3 points, got {n}")
    grid = ps.int_coords
    order = sorted(range(n), key=lambda i: grid[i])
    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and turn(grid[lower[-2]], grid[lower[-1]], grid[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and turn(grid[upper[-2]], grid[upper[-1]], grid[i]) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def line_separates(p: Point, q: Point, a: Point, b: Point) -> bool:
    """True iff a and b lie strictly on opposite sides of line(p, q)."""
    if p == q:
        raise DegenerateLineError("p and q coincide, no supporting line")
    oa = orientation(p, q, a)
    ob = orientation(p, q, b)
    if oa is Orientation.COLLINEAR or ob is Orientation.COLLINEAR:
        raise OnLineError("query point lies on the separating line")
    return oa is not ob


def _shear_candidates() -> Iterator[Fraction]:
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(1, k)
        yield Fraction(-1, k)
        k += 1


def shear_to_generic(ps: PointSet) -> tuple[PointSet, Fraction]:
    """Apply the shear (x, y) -> (x + lam*y, y) making all x coordinates
    distinct.

    lam is the first admissible value of 0, 1, -1, 1/2, -1/2, 1/3, ...
    A shear has determinant 1, so every triple orientation is preserved.
    With lam = p/q the sheared set is the grid (q*x + p*y, q*y) over the
    scale q*scale, which the PointSet reduces by their common factor.
    """
    grid = ps.int_coords
    for lam in _shear_candidates():
        p, q = lam.numerator, lam.denominator
        xs = [q * x + p * y for x, y in grid]
        if len(set(xs)) == len(xs):
            if lam == 0:
                return ps, lam
            return PointSet(tuple(zip(xs, [q * y for _, y in grid])), q * ps.scale), lam
    raise AssertionError("unreachable: only finitely many shears are forbidden")


def segments_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True iff the open segments ab and cd share a point.

    Segments sharing an endpoint are rejected with SharedEndpointError;
    with the endpoints in general position the remaining test is a strict
    sign condition.
    """
    if a in (c, d) or b in (c, d):
        raise SharedEndpointError("segments share an endpoint")
    o1 = orientation(a, b, c).value
    o2 = orientation(a, b, d).value
    o3 = orientation(c, d, a).value
    o4 = orientation(c, d, b).value
    if o1 == o2 == o3 == o4 == 0:
        # all four collinear: open overlap iff the intervals intersect
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        return max(lo1, lo2) < min(hi1, hi2)
    return o1 * o2 < 0 and o3 * o4 < 0
