"""The point file format: one "x y" pair per line.

Coordinates are integers or lowest-terms rationals written "p/q" (plain
decimals such as "0.5" are read too, exponent notation is refused); "#"
starts a comment and blank lines are skipped.  Serialization emits the
canonical form, so parse(serialize(ps)) round-trips exactly.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .geometry import GeometryError, Point, PointSet, certify_general_position


class PointSyntaxError(GeometryError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _coordinate(token: str) -> int | Fraction:
    """int(token) for an ASCII integer, an optional "-" and digits;
    Fraction(token), the slower general parse, for every other token.

    Both convert each run of digits with int(), which refuses more than
    sys.get_int_max_str_digits() digits where Python has that limit;
    that refusal is reworded here, since the call its message names is
    out of a point file's reach.
    """
    digits = token[1:] if token[:1] == "-" else token
    try:
        if digits.isascii() and digits.isdigit():
            return int(token)
        return Fraction(token)
    except ValueError:
        # Python 3.10.0-3.10.6 has neither the limit nor the call
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        longest = max((len(run.replace("_", "")) for run in re.findall(r"\d[\d_]*", token)),
                      default=0)
        if 0 < limit < longest:
            raise ValueError(f"a coordinate has a number of {longest} digits, "
                             f"more than the limit of {limit} digits") from None
        raise


def _coordinate_pairs(text: str) -> list[tuple[int | Fraction, int | Fraction]]:
    """The (x, y) pairs of a point file, ints where the text is an
    integer: what trusted_point_set takes, with no Point built."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PointSyntaxError(lineno, f"expected 'x y', got {raw.strip()!r}")
        # Fraction("1e10000000") would build 10**10000000 eagerly
        if "e" in line or "E" in line:
            raise PointSyntaxError(
                lineno, f"exponent notation is not accepted: {line!r}")
        try:
            pairs.append((_coordinate(parts[0]), _coordinate(parts[1])))
        except (ValueError, ZeroDivisionError) as err:
            raise PointSyntaxError(lineno, str(err)) from None
    return pairs


def parse_point_list(text: str) -> list[Point]:
    """Parse coordinates only; no certification (morph targets may be
    arbitrary positions)."""
    return [Point(x, y) for x, y in _coordinate_pairs(text)]


def parse_points(text: str) -> PointSet:
    """Parse and certify a point file; syntax errors carry line numbers."""
    return certify_general_position(_coordinate_pairs(text))


def format_coordinate(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _coordinate_texts(ps: PointSet) -> list[list[str]]:
    """[x, y] text per label in lowest terms, written from the grid: the
    plain integers when the scale is 1."""
    text = str if ps.scale == 1 else (lambda v: format_coordinate(Fraction(v, ps.scale)))
    return [[text(x), text(y)] for x, y in ps.int_coords]


def serialize_points(ps: PointSet) -> str:
    """Canonical text form: lowest-terms coordinates, single spaces."""
    return "".join(f"{x} {y}\n" for x, y in _coordinate_texts(ps))
