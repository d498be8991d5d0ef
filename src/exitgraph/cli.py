"""Command line interface.

Exit codes: 0 on success, 1 on input or usage errors, 2 when a verified
property fails to hold (method disagreement or a violated bound).  When
the reader of stdout closes it early (``exitgraph compute f | head``),
the command stops with exit code 1 and writes nothing to stderr.

Every point file must hold distinct points, no three collinear.  The
one-file commands whose first geometric step is the dual scan
(``compute``, ``stats``, ``crossings``, ``render`` and ``check``) let
the scan certify that: its exact crossing tables tie exactly when three
dual lines meet, that is when three points are collinear, so a second
O(n^2) pass up front would only repeat it.  Only once the scan has hit a
tie does ``certify_general_position`` run, to name the lexicographically
first collinear triple; duplicates are refused before the scan.  The
error is thus the one that ``parse_points`` gives, which ``compare`` and
``morph`` still call up front.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import (
    compare_exit_structures,
    exit_graph_crossings,
    exit_graph_stats,
    search_min_exit_edges,
)
from .dual import ConcurrentLinesError, ExitGraph, exit_edges_dual
from .geometry import (
    GeometryError,
    PointSet,
    certify_general_position,
    trusted_point_set,
)
from .morph import first_collinearity_morph
from .oracle import exit_edges_bruteforce, exit_edges_via_holes, is_exit_edge_with_witness
from .pointfile import _coordinate_pairs, parse_points, serialize_points
from .report import build_report, edge_rows, render_json
from .svg import render_svg

OK, INPUT_ERROR, PROPERTY_VIOLATION = 0, 1, 2

# check runs both oracles, each O(n^4) at worst: on 80 random points the
# whole command takes about 2 s on a 2-core host, about half in each
CHECK_MAX_POINTS = 80


def _load(path: str) -> PointSet:
    return parse_points(Path(path).read_text(encoding="utf-8"))


def _points(path: str) -> list[tuple]:
    """The (x, y) pairs of a point file, parsed to ints and Fractions."""
    return _coordinate_pairs(Path(path).read_text(encoding="utf-8"))


def _scan(points: list[tuple], scan):
    """(ps, scan(ps)) for the PointSet ps of the pairs points, certified
    by the exact dual scan that scan runs first.

    Raises DuplicatePointError for the first coinciding pair, and on a
    tie of the scan CollinearTripleError for the first collinear triple:
    the errors that certify_general_position raises up front.
    """
    ps = trusted_point_set(points)
    try:
        return ps, scan(ps)
    except ConcurrentLinesError:
        certify_general_position(ps.int_coords)
        raise


# --json documents are written in slices of this many characters, so that
# no encoded copy of the whole text is made at once
_WRITE_SLICE = 1 << 20


def _write(text: str) -> None:
    sys.stdout.writelines(text[i:i + _WRITE_SLICE] for i in range(0, len(text), _WRITE_SLICE))


def _format_edges(edges: ExitGraph, n: int) -> str:
    """The line "E exit edges: " followed by every edge as ExitEdge's
    str writes it, "{a,b} witnesses {w0,w1}", joined by "; "."""
    body = edge_rows(edges, n, "{%d,%d} witnesses {%d,%d}", "; ")
    plural = "s" if len(edges) != 1 else ""
    return f"{len(edges)} exit edge{plural}: {body}"


def _cmd_compute(args) -> int:
    ps, edges = _scan(_points(args.file), exit_edges_dual)
    if args.json:
        _write(render_json(build_report(ps, edges)))
    else:
        print(_format_edges(edges, len(ps)))
    return OK


def _cmd_check(args) -> int:
    points = _points(args.file)
    if len(points) > CHECK_MAX_POINTS:
        print(f"error: check runs two O(n^4) oracles and takes at most {CHECK_MAX_POINTS} "
              f"points, not {len(points)}; use 'exitgraph compute' for larger sets",
              file=sys.stderr)
        return INPUT_ERROR
    ps, dual = _scan(points, exit_edges_dual)
    brute = exit_edges_bruteforce(ps)
    hole_pairs = exit_edges_via_holes(ps)
    dual_matches = dual == brute
    holes_match = frozenset(e.endpoints for e in brute) == hole_pairs
    print(f"dual method:        {_format_edges(dual, len(ps))}")
    print(f"brute force agrees: {'yes' if dual_matches else 'NO'}")
    print(f"4-hole test agrees: {'yes' if holes_match else 'NO'}")
    return OK if dual_matches and holes_match else PROPERTY_VIOLATION


def _cmd_stats(args) -> int:
    ps, edges = _scan(_points(args.file), exit_edges_dual)
    rep = exit_graph_stats(ps, edges)
    if args.json:
        _write(render_json(build_report(ps, edges, rep)))
    else:
        print(f"n = {rep.n}")
        print(f"triangular cells = {rep.triangles} "
              f"(unmarked {rep.triangles_unmarked}), hourglasses = {rep.hourglass_count}")
        print(f"exit edges = {rep.exit_edge_count} "
              f"(bounds: {rep.lower_bound} .. {rep.upper_bound})")
        print(f"sum of per-line x = {rep.sum_x}")
        for name, ok in rep.verdicts.items():
            print(f"  {name}: {'pass' if ok else 'FAIL'}")
    return OK if rep.all_bounds_hold else PROPERTY_VIOLATION


def _cmd_render(args) -> int:
    mode = "dual" if args.dual else "primal"
    _, svg = _scan(_points(args.file), lambda ps: render_svg(ps, mode))
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {mode} figure to {args.out}")
    return OK


def _cmd_morph(args) -> int:
    ps0 = _load(args.file_a)
    target = _points(args.file_b)
    event = first_collinearity_morph(ps0, target)
    if event is None:
        print("no collinearity event in (0, 1]")
        return OK
    a, b, c = event.triple
    print(f"first collinearity at t = {event.time} (~{event.time.significant(6)})")
    print(f"triple ({a}, {b}, {c}); {c} strictly inside segment "
          f"{a}-{b}: {'yes' if event.between else 'no'}")
    if event.between:
        holds = is_exit_edge_with_witness(ps0, a, b, c)
        print(f"edge {{{a},{b}}} is an exit edge of the start set with "
              f"witness {c}: {'yes' if holds else 'NO'}")
        if not holds:
            return PROPERTY_VIOLATION
    return OK


def _cmd_compare(args) -> int:
    ps_a = _load(args.file_a)
    ps_b = _load(args.file_b)
    rep = compare_exit_structures(ps_a, ps_b)
    print(f"exit structures match: {'yes' if rep.same_exit_structure else 'no'}")
    print(f"order types match:     {'yes' if rep.same_order_type else 'no'}")
    if rep.edges_only_in_first:
        print(f"edges only in first:  {sorted(rep.edges_only_in_first)}")
    if rep.edges_only_in_second:
        print(f"edges only in second: {sorted(rep.edges_only_in_second)}")
    for pair, wa, wb in rep.witness_mismatches:
        print(f"witnesses differ on {pair}: {sorted(wa)} vs {sorted(wb)}")
    if rep.first_orientation_mismatch:
        print(f"first differing triple: {rep.first_orientation_mismatch}")
    return OK


def _cmd_search(args) -> int:
    best_ps, best_count = search_min_exit_edges(args.n, args.trials, args.seed)
    lower = -(-(3 * args.n - 7) // 5)
    print(f"minimum over {args.trials} trials: {best_count} exit edges "
          f"(proved lower bound {lower})")
    print(serialize_points(best_ps), end="")
    return OK if best_count >= lower else PROPERTY_VIOLATION


def _cmd_crossings(args) -> int:
    _, count = _scan(_points(args.file), exit_graph_crossings)
    print(f"{count} proper crossings among exit edges")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitgraph",
        description="Exit edges of planar point sets in general position.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exit edges and witnesses (dual path)")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("check", help="cross-check all three methods")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("stats", help="triangle/hourglass statistics and bounds")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("render", help="write an SVG figure")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--dual", action="store_true")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("morph", help="first collinearity of a linear morph")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_morph)

    p = sub.add_parser("compare", help="compare exit structures and order types")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("search", help="random search for few exit edges")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("crossings", help="count crossings in the exit graph")
    p.add_argument("file")
    p.set_defaults(func=_cmd_crossings)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code else OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop without a message, and point
        # stdout at devnull so that the interpreter's last flush has
        # nothing to report; exit 1, as Python itself does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return INPUT_ERROR
    except (GeometryError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return INPUT_ERROR


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
