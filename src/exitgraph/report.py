"""Structured JSON reports.

The schema field is versioned so downstream consumers survive additive
changes; all numbers are exact, with rationals written "p/q".
"""

from __future__ import annotations

import json
from fractions import Fraction

from .analysis import StatsReport
from .geometry import PointSet
from .oracle import ExitEdge
from .pointfile import format_coordinate

SCHEMA_VERSION = 1


def _frac(value: Fraction) -> str:
    return format_coordinate(Fraction(value))


def build_report(ps: PointSet, edges: tuple[ExitEdge, ...],
                 stats: StatsReport | None = None) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "n": len(ps),
        "points": [[_frac(p.x), _frac(p.y)] for p in ps.points],
        "exit_edges": [
            {"endpoints": list(e.endpoints), "witnesses": sorted(e.witnesses)}
            for e in edges
        ],
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
# number of witnesses, one or two (see ExitEdge).
_POINT_ROW = '    [\n      %s,\n      %s\n    ]'
_EDGE_HEAD = ('    {\n      "endpoints": [\n        %d,\n        %d\n      ],\n'
              '      "witnesses": [\n        ')
_EDGE_ROWS = {1: _EDGE_HEAD + '%d\n      ]\n    }',
              2: _EDGE_HEAD + '%d,\n        %d\n      ]\n    }'}


def _array(rows: list[str]) -> list[str]:
    return ["[\n", ",\n".join(rows), "\n  ]"] if rows else ["[]"]


def render_json(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2) + "\\n"``, byte for byte.

    ``indent`` makes json fall back to its pure-Python encoder, which on
    large sets costs more than computing the exit edges, so the two bulk
    arrays are written with one template per row.  Strings still go
    through json's own escaping, and the other keys through json.dumps.
    Everything is joined once at the end, so the joined rows are copied
    once more, not once per level of nesting.
    """
    parts = ["{"]
    for key, value in doc.items():
        parts.append(f"\n  {json.dumps(key)}: ")
        if key == "points":
            parts += _array([_POINT_ROW % (json.dumps(x), json.dumps(y))
                             for x, y in value])
        elif key == "exit_edges":
            parts += _array([_EDGE_ROWS[len(e["witnesses"])]
                             % (*e["endpoints"], *e["witnesses"]) for e in value])
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        parts.append(",")
    parts[-1] = "\n}\n"
    return "".join(parts)
