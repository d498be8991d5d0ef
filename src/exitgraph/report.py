"""Structured JSON reports.

The schema field is versioned so downstream consumers survive additive
changes; all numbers are exact, with rationals written "p/q".
"""

from __future__ import annotations

import json
from array import array

from .analysis import StatsReport
from .dual import ExitGraph
from .geometry import PointSet
from .pointfile import _coordinate_texts, format_coordinate

SCHEMA_VERSION = 1


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
        "points": _coordinate_texts(ps),
        "exit_edges": edges,
    }
    if stats is not None:
        doc["stats"] = {
            "triangles": stats.triangles,
            "triangles_unmarked": stats.triangles_unmarked,
            "hourglasses": stats.hourglass_count,
            "exit_edges": stats.exit_edge_count,
            "lower_bound": format_coordinate(stats.lower_bound),
            "upper_bound": format_coordinate(stats.upper_bound),
            "sum_x": format_coordinate(stats.sum_x),
            "per_line": [
                {"line": ls.source, "t": ls.t, "h": ls.h, "x": format_coordinate(ls.x)}
                for ls in stats.per_line
            ],
        }
        doc["verdicts"] = dict(stats.verdicts)
    return doc


def _edge_pieces(edges: ExitGraph, n: int, template: str, sep: str) -> list[str]:
    """The pieces that edge_rows joins, four per edge."""
    head, mid, wopen, wsep, close = template.split("%d")
    labels = [str(v) for v in range(n)]
    pa = [f"{sep}{head}{v}{mid}" for v in labels]
    pb = [v + wopen for v in labels]
    tail = [f"{wsep}{v}{close}" for v in labels] + [close]
    if isinstance(edges.a, array):
        flat = [""] * (4 * len(edges))
        flat[0::4] = map(pa.__getitem__, edges.a.tolist())
        flat[1::4] = map(pb.__getitem__, edges.b.tolist())
        flat[2::4] = map(labels.__getitem__, edges.w0.tolist())
        flat[3::4] = map(tail.__getitem__, edges.w1.tolist())
    else:
        import numpy as np

        # numpy columns: one gather from one object array of all four
        # tables, whose indices never become Python ints
        table = np.array(pa + pb + labels + tail, dtype=object)
        idx = np.empty((len(edges), 4), dtype=np.int32)  # indices up to 4n
        for t, column in enumerate((edges.a, edges.b, edges.w0, edges.w1)):
            idx[:, t] = column
        idx += np.arange(0, 4 * n, n)  # where pa, pb, labels and tail start
        idx[edges.w1 < 0, 3] = 4 * n  # tail[-1], the one-witness end
        picked = table[idx.ravel()]
        del idx
        flat = picked.tolist()
    if flat:
        flat[0] = flat[0][len(sep):]
    return flat


def edge_rows(edges: ExitGraph, n: int, template: str, sep: str) -> str:
    """The rows of edges joined by sep, each row the template, with its
    four ``%d`` filled by a, b, w0 and w1; a row with one witness drops
    the last ``%d`` and the text between it and the third.

    Every row is fixed text around labels in 0..n-1, so the rows are
    gathered from four tables built once per label, not formatted one by
    one: ``pa[a]`` holds sep, the row head and a, ``tail[w1]`` the second
    witness and the row's end, and ``tail[-1]``, the entry past the last
    label, the one-witness end.  The gather depends on the column type.
    ``array.array`` columns, from the pure-Python scan, go through
    ``tolist()`` one at a time and are mapped through each table, so
    that path never loads numpy.  numpy columns index one object array
    that holds the four tables end to end, so no label becomes a Python
    int.
    """
    return "".join(_edge_pieces(edges, n, template, sep))


# One row of each bulk array as json.dumps(doc, indent=2) lays it out:
# rows at depth 2, their items at depth 3.  Coordinates are
# format_coordinate's text, digits with "-" and "/", which JSON does not
# escape.
_POINT_ROW = '    [\n      "%s",\n      "%s"\n    ]'
_EDGE_ROW = ('    {\n      "endpoints": [\n        %d,\n        %d\n      ],\n'
             '      "witnesses": [\n        %d,\n        %d\n      ]\n    }')


def _array(pieces: list[str]) -> list[str]:
    return ["[\n", *pieces, "\n  ]"] if pieces else ["[]"]


def render_json(doc: dict) -> str:
    """The text of ``json.dumps(doc, indent=2) + "\\n"`` for a doc of
    build_report, byte for byte, with its ExitGraph written as the list
    of edge objects that build_report's docstring describes.

    ``indent`` makes json fall back to its pure-Python encoder, which on
    large sets costs more than computing the exit edges, so the two bulk
    arrays are written directly: the points with one template per row,
    the edges from edge_rows' pieces, gathered from the ExitGraph's
    columns.  The other keys go through json.dumps.  Everything is
    joined once at the end, so the text is built once, not once per
    level of nesting.
    """
    parts = ["{"]
    for key, value in doc.items():
        parts.append(f"\n  {json.dumps(key)}: ")
        if key == "points":
            rows = ",\n".join([_POINT_ROW % (x, y) for x, y in value])
            parts += _array([rows] if rows else [])
        elif key == "exit_edges":
            parts += _array(_edge_pieces(value, doc["n"], _EDGE_ROW, ",\n"))
        else:
            parts.append(json.dumps(value, indent=2).replace("\n", "\n  "))
        parts.append(",")
    parts[-1] = "\n}\n"
    return "".join(parts)
