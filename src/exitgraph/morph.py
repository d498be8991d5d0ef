"""First collinearity along a straight-line morph, in exact arithmetic.

Moving every point on the segment from its start to its target position,
each triple's orientation determinant is a quadratic polynomial in the
time t.  Event times are therefore roots of integer quadratics; they are
represented exactly as (p + q*sqrt(d))/r and compared by nested sign
computations, never by floating point, so near-simultaneous events are
ordered correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

from .geometry import GeometryError, PointSet, SizeMismatchError, _grid


class ImmediateDegeneracyError(GeometryError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"triple ({i}, {j}, {k}) is collinear at t = 0")
        self.labels = (i, j, k)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_with_surd(a: int, b: int, m: int) -> int:
    """Sign of a + b*sqrt(m) for integers with m >= 0."""
    if b == 0 or m == 0:
        return _sign(a)
    sb = _sign(b)
    sa = _sign(a)
    if sa == 0 or sa == sb:
        return sb
    t = _sign(a * a - b * b * m)
    return sa if t > 0 else (sb if t < 0 else 0)


def _sign_with_two_surds(a: int, b: int, m: int, c: int, k: int) -> int:
    """Sign of a + b*sqrt(m) + c*sqrt(k) for integers with m, k >= 0."""
    if b == 0 or m == 0:
        return _sign_with_surd(a, c, k)
    if c == 0 or k == 0:
        return _sign_with_surd(a, b, m)
    t1 = _sign_with_surd(a, b, m)
    t2 = _sign(c)
    if t1 == 0:
        return t2
    if t1 == t2:
        return t1
    u = _sign_with_surd(a * a + b * b * m - c * c * k, 2 * a * b, m)
    return t1 if u > 0 else (t2 if u < 0 else 0)


@dataclass(frozen=True)
class QuadraticRoot:
    """The exact value (p + q*sqrt(d)) / r, normalized: r > 0, d >= 0
    square-free-folded (a perfect-square d collapses to a rational), and
    gcd(p, q, r) = 1."""

    p: int
    q: int
    d: int
    r: int

    @staticmethod
    def make(p: int, q: int, d: int, r: int) -> "QuadraticRoot":
        if r == 0:
            raise ZeroDivisionError("root denominator is zero")
        if d < 0:
            raise ValueError("negative discriminant")
        if r < 0:
            p, q, r = -p, -q, -r
        if q == 0:
            d = 0
        elif d == 0:
            q = 0
        else:
            s = isqrt(d)
            if s * s == d:
                p, q, d = p + q * s, 0, 0
        g = gcd(gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        return QuadraticRoot(p, q, d, r)

    def __float__(self) -> float:
        s = isqrt(self.d)
        if s * s == self.d:  # a rational value, as make leaves it with d = 0
            return (self.p + self.q * s) / self.r
        # an irrational value times 2^k lies strictly inside (f, f + 1), f
        # its floor; once f has more than 64 bits, every halfway point
        # between adjacent floats, times 2^k, is an integer, so f + 1/2
        # rounds as the value does, in one correctly rounded division
        k = 64
        while (f := self._floor_times(1 << k)).bit_length() <= 64:
            k *= 2
        return (2 * f + 1) / (1 << k + 1)

    def _floor_times(self, scale: int) -> int:
        """floor(self * scale) for a positive integer scale, exactly."""
        # floor((a + x) / r) = floor((a + floor(x)) / r) for integers a and
        # r > 0, and -sqrt(m) is floored by ceiling sqrt(m) = isqrt(m-1) + 1
        m = self.q * self.q * self.d * scale * scale
        root = isqrt(m) if self.q >= 0 else -isqrt(m - 1) - 1
        return (self.p * scale + root) // self.r

    def significant(self, digits: int) -> str:
        """A value in (0, 1] rounded half-even to ``digits`` significant
        digits and laid out as ``%g`` lays out a float: in fixed notation
        down to 1e-4 (``0.139688``, ``1``), in exponent form below
        (``1e-05``, ``1.14461e-332``).  Exact, also below the float range;
        a value outside (0, 1], or fewer than one digit, raises ValueError."""
        if not 0 < self <= 1:
            raise ValueError(f"{self} is not in (0, 1]")
        if digits < 1:
            raise ValueError(f"{digits} significant digits")
        # j is the least power of ten with value * 10^j >= least: a value
        # in (0, 1] fails at digits - 2, and j is doubled past it, then
        # bisected
        least = 10 ** (digits - 1)
        low, j = digits - 2, digits
        while self._floor_times(10 ** j) < least:
            low, j = j, 2 * j
        while j - low > 1:
            mid = (low + j) // 2
            low, j = (mid, j) if self._floor_times(10 ** mid) < least else (low, mid)
        if self.q == 0:
            n = round(Fraction(self.p * 10 ** j, self.r))
        else:  # an irrational value is never halfway
            n = (self._floor_times(2 * 10 ** j) + 1) // 2
        if n == 10 ** digits:
            n, j = n // 10, j - 1
        x = digits - 1 - j  # the decimal exponent of the rounded value
        s = "0" * -x + str(n) if x >= -4 else str(n)
        mantissa = (s[0] + "." + s[1:]).rstrip("0").rstrip(".")
        return mantissa if x >= -4 else f"{mantissa}e{x:+03d}"

    def _cmp(self, other) -> int:
        if isinstance(other, QuadraticRoot):
            return _sign_with_two_surds(
                self.p * other.r - other.p * self.r,
                self.q * other.r, self.d,
                -other.q * self.r, other.d)
        if isinstance(other, (int, Fraction)):  # self - n/d has the sign of d*self - n
            return _sign_linear_at(-other.numerator, other.denominator, self)
        return NotImplemented

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def equals(self, other) -> bool:
        return self._cmp(other) == 0

    def __str__(self) -> str:
        if self.q == 0:
            return str(Fraction(self.p, self.r))
        return f"({self.p} + {self.q}*sqrt({self.d})) / {self.r}"


def _sign_linear_at(alpha: int, beta: int, root: QuadraticRoot) -> int:
    """Sign of alpha + beta * root."""
    return _sign_with_surd(alpha * root.r + beta * root.p, beta * root.q, root.d)


def _quadratic_roots_in_unit_interval(c2: int, c1: int, c0: int) -> list[QuadraticRoot]:
    """Real roots of c2 t^2 + c1 t + c0 lying in (0, 1]."""
    roots: list[QuadraticRoot] = []
    if c2 == 0:
        if c1 != 0:
            roots.append(QuadraticRoot.make(-c0, 0, 0, c1))
    else:
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return []
        roots.append(QuadraticRoot.make(-c1, 1, disc, 2 * c2))
        if disc > 0:
            roots.append(QuadraticRoot.make(-c1, -1, disc, 2 * c2))
    return [t for t in roots if 0 < t <= 1]


@dataclass(frozen=True)
class MorphEvent:
    """The first collinearity event of a linear morph.

    ``triple`` is (a, b, c); when ``between`` is true, c lies strictly
    inside segment ab at the event time.
    """

    time: QuadraticRoot
    triple: tuple[int, int, int]
    between: bool


def first_collinearity_morph(ps0: PointSet, target: Sequence) -> MorphEvent | None:
    """Earliest time in (0, 1] at which any triple becomes collinear when
    every point moves linearly from ps0 to its target position.

    Returns None when no triple degenerates.  Sign evaluations at the
    event time run in the quadratic extension containing the root.
    """
    n = len(ps0)
    # one grid for both ends: every coordinate times their common denominator
    grid, _ = _grid((*ps0.points, *target))
    if len(grid) != 2 * n:
        raise SizeMismatchError(f"sizes differ: {n} vs {len(grid) - n}")
    g0, g1 = grid[:n], grid[n:]

    best: QuadraticRoot | None = None
    best_triple: tuple[int, int, int] | None = None
    for i in range(n):
        x0i, y0i = g0[i]
        dxi, dyi = g1[i][0] - x0i, g1[i][1] - y0i
        for j in range(i + 1, n):
            ax = g0[j][0] - x0i
            ay = g0[j][1] - y0i
            dax = (g1[j][0] - g0[j][0]) - dxi
            day = (g1[j][1] - g0[j][1]) - dyi
            for k in range(j + 1, n):
                bx = g0[k][0] - x0i
                by = g0[k][1] - y0i
                dbx = (g1[k][0] - g0[k][0]) - dxi
                dby = (g1[k][1] - g0[k][1]) - dyi
                c0 = ax * by - ay * bx
                if c0 == 0:
                    raise ImmediateDegeneracyError(i, j, k)
                c1 = ax * dby - ay * dbx + dax * by - day * bx
                c2 = dax * dby - day * dbx
                for root in _quadratic_roots_in_unit_interval(c2, c1, c0):
                    if best is None or root._cmp(best) < 0:
                        best = root
                        best_triple = (i, j, k)
    if best is None:
        return None
    return _classify_event(g0, g1, best, best_triple)


def _classify_event(g0, g1, root: QuadraticRoot, triple: tuple[int, int, int]) -> MorphEvent:
    """Pick the canonical (a, b, c): c is the strict middle point at the
    event time when one exists; otherwise the triple stays ascending and
    ``between`` is false.

    The three points are collinear at the root, so c lies strictly between
    u and v iff x_u - x_c and x_v - x_c have opposite nonzero signs there,
    or, when both are zero (a vertical line), y_u - y_c and y_v - y_c do.
    Each difference is linear in t, so each sign is one ``_sign_linear_at``.
    """
    def signs_from(mid: int, axis: int) -> list[int]:
        m0, m1 = g0[mid][axis], g1[mid][axis]
        return [_sign_linear_at(g0[o][axis] - m0, g1[o][axis] - g0[o][axis] - (m1 - m0), root)
                for o in triple if o != mid]

    for mid in triple:
        su, sv = signs_from(mid, 0)
        if su == sv == 0:
            su, sv = signs_from(mid, 1)
        if su * sv < 0:
            a, b = sorted(t for t in triple if t != mid)
            return MorphEvent(root, (a, b, mid), True)
    return MorphEvent(root, triple, False)
