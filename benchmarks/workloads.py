"""The four benchmark workloads: the timed operation and its output checks.

Each workload is a closed loop: one caller, one operation at a time, on
inputs from inputs.py.  Calls go through module attributes at call time
(``exitgraph.exit_edges_dual``, ``exitgraph.cli.cli``), so the tracer's
wrappers see them.

Why these four:

* cli_compute: the path users run, parse -> certify -> shear -> tables ->
  scan -> group -> ExitEdge -> JSON; today dominated by the O(n^3)
  certify_general_position.
* dual_large: exit_edges_dual on a trusted set, so certification is
  bypassed; numpy tables, scan and grouping, then ~533k ExitEdge objects.
* dual_bigcoord: the same call with coordinates above
  fastscan.MAX_SAFE_COORD, so the exact pure-Python tables and scan run;
  the other side of that backend choice.
* analysis_mix: the analysis and svg layers, many of their calls just
  below the vectorized-scan threshold of 64 points.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import exitgraph
import exitgraph.cli

# checks.py (and with it numpy) is imported inside the edge-list checks
# only, so analysis_mix, which never loads numpy itself, keeps the
# harness's numpy out of its peak RSS


@dataclass(frozen=True)
class Workload:
    run: Callable  # input -> output; the timed operation
    check: Callable  # (input, output, rng, recorded) -> list of errors
    fingerprint: Callable  # (input, output) -> equal for equal outputs
    # (input, output) -> what the default seed compares; None: the fingerprint
    recorded_fn: Optional[Callable] = None

    def recorded(self, inp, out):
        return (self.recorded_fn or self.fingerprint)(inp, out)


# -- cli_compute --------------------------------------------------------

def _run_cli(inp) -> int:
    with open(inp["out"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        return exitgraph.cli.cli(["compute", inp["path"], "--json"])


def _cli_rows(doc):
    from checks import edge_rows

    return edge_rows((e["endpoints"], e["witnesses"]) for e in doc["exit_edges"])


def _check_cli(inp, rc, rng, recorded):
    from checks import edge_errors

    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(Path(inp["out"]).read_bytes())
    pts = inp["points"]
    errors = []
    if doc.get("schema") != 1:
        errors.append(f"schema {doc.get('schema')!r}, expected 1")
    if doc.get("n") != len(pts):
        errors.append(f"n {doc.get('n')!r}, expected {len(pts)}")
    if doc.get("points") != [[str(x), str(y)] for x, y in pts]:
        errors.append("points differ from the input file")
    if errors:
        return errors
    ps = exitgraph.trusted_point_set(pts)
    return edge_errors(ps, _cli_rows(doc), rng, recorded)


def _fingerprint_cli(inp, rc):
    return rc, hashlib.sha256(Path(inp["out"]).read_bytes()).hexdigest()


def _recorded_cli(inp, rc):
    from checks import canonical_digest

    return canonical_digest(_cli_rows(json.loads(Path(inp["out"]).read_bytes())))


# -- dual_large and dual_bigcoord ---------------------------------------

def _run_dual(inp):
    edges = exitgraph.exit_edges_dual(inp["ps"])
    len(edges)  # consume the result inside the timed region
    return edges


def _check_dual(inp, edges, rng, recorded):
    from checks import edge_errors, rows_of_edges

    return edge_errors(inp["ps"], rows_of_edges(edges), rng, recorded)


def _fingerprint_dual(inp, edges):
    from checks import canonical_digest, rows_of_edges

    return canonical_digest(rows_of_edges(edges))


# -- analysis_mix -------------------------------------------------------

def _run_analysis(inp) -> dict:
    return {
        "stats": exitgraph.stats_report(inp["stats"]),
        "crossings": exitgraph.exit_graph_crossings(inp["crossings"]),
        "outer": exitgraph.outer_face_vertices(inp["outer"]),
        "search": exitgraph.search_min_exit_edges(*inp["search"]),
        "svg": exitgraph.render_svg(inp["svg"], "dual"),
    }


def _check_analysis(inp, out, rng, recorded):
    errors = [f"stats verdict {name} fails"
              for name, ok in out["stats"].verdicts.items() if not ok]
    if recorded is not None and out["crossings"] != recorded:
        errors.append(f"{out['crossings']} crossings, recorded {recorded}")
    hull = set(exitgraph.convex_hull(inp["outer"]))
    if not out["outer"] <= hull:
        errors.append(f"outer face {sorted(out['outer'] - hull)} outside the hull")
    n = inp["search"][0]
    if out["search"][1] < -(-(3 * n - 7) // 5):
        errors.append(f"search minimum {out['search'][1]} below the proved lower bound")
    if not out["svg"].rstrip().endswith("</svg>"):
        errors.append("dual SVG is not a complete document")
    return errors


def _fingerprint_analysis(inp, out):
    best_ps, best = out["search"]
    return (sorted(out["stats"].verdicts.items()), out["crossings"],
            sorted(out["outer"]), best, best_ps.points,
            hashlib.sha256(out["svg"].encode("utf-8")).hexdigest())


WORKLOADS = {
    "cli_compute": Workload(_run_cli, _check_cli, _fingerprint_cli, _recorded_cli),
    "dual_large": Workload(_run_dual, _check_dual, _fingerprint_dual),
    "dual_bigcoord": Workload(_run_dual, _check_dual, _fingerprint_dual),
    "analysis_mix": Workload(_run_analysis, _check_analysis, _fingerprint_analysis,
                             lambda inp, out: out["crossings"]),
}
