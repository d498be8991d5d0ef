"""Structured JSON reports.

The schema field is versioned so downstream consumers survive additive
changes; all numbers are exact, with rationals written "p/q".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .analysis import StatsReport
from .dual import ExitGraph
from .geometry import PointSet
from .pointfile import format_coordinate

SCHEMA_VERSION = 1


def _frac(value: Fraction) -> str:
    return format_coordinate(Fraction(value))


def build_report(ps: PointSet, edges: ExitGraph,
                 stats: StatsReport | None = None) -> dict:
    """The report document, in the key order that render_json writes.

    ``doc["exit_edges"]`` is the ExitGraph itself; render_json writes it
    as one ``{"endpoints": [a, b], "witnesses": [...]}`` object per edge,
    witnesses ascending, straight from its columns.  Every other value is
    plain JSON data.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "n": len(ps),
        "points": [[_frac(p.x), _frac(p.y)] for p in ps.points],
        "exit_edges": edges,
    }
    if stats is not None:
        doc["stats"] = {
            "triangles": stats.triangles,
            "triangles_unmarked": stats.triangles_unmarked,
            "hourglasses": stats.hourglass_count,
            "exit_edges": stats.exit_edge_count,
            "lower_bound": _frac(stats.lower_bound),
            "upper_bound": _frac(stats.upper_bound),
            "sum_x": _frac(stats.sum_x),
            "per_line": [
                {"line": ls.source, "t": ls.t, "h": ls.h, "x": _frac(ls.x)}
                for ls in stats.per_line
            ],
        }
        doc["verdicts"] = dict(stats.verdicts)
    return doc


# One row of each bulk array as json.dumps(doc, indent=2) lays it out:
# rows at depth 2, their items at depth 3.  An edge row is picked by its
# number of witnesses, one or two (see ExitGraph).
_POINT_ROW = '    [\n      %s,\n      %s\n    ]'
_EDGE_HEAD = ('    {\n      "endpoints": [\n        %d,\n        %d\n      ],\n'
              '      "witnesses": [\n        ')
_EDGE_ROWS = {1: _EDGE_HEAD + '%d\n      ]\n    }',
              2: _EDGE_HEAD + '%d,\n        %d\n      ]\n    }'}


def _array(rows: list[str]) -> list[str]:
    return ["[\n", ",\n".join(rows), "\n  ]"] if rows else ["[]"]


def render_json(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2) + "\\n"`` for a doc of
    build_report, byte for byte, with its ExitGraph written as the list
    of edge objects that build_report's docstring describes.

    ``indent`` makes json fall back to its pure-Python encoder, which on
    large sets costs more than computing the exit edges, so the two bulk
    arrays are written with one template per row, the edges straight from
    the ExitGraph's columns.  Strings still go through json's own
    escaping, and the other keys through json.dumps.  Everything is
    joined once at the end, so the joined rows are copied once more, not
    once per level of nesting.
    """
    parts = ["{"]
    for key, value in doc.items():
        parts.append(f"\n  {json.dumps(key)}: ")
        if key == "points":
            parts += _array([_POINT_ROW % (json.dumps(x), json.dumps(y))
                             for x, y in value])
        elif key == "exit_edges":
            one, two = _EDGE_ROWS[1], _EDGE_ROWS[2]
            parts += _array([one % (a, b, w0) if w1 < 0 else two % (a, b, w0, w1)
                             for a, b, w0, w1 in zip(*value.columns())])
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        parts.append(",")
    parts[-1] = "\n}\n"
    return "".join(parts)
