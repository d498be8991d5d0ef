"""Regenerate the rows of ROADMAP.md's Baseline table (not a gated workload).

    python3 benchmarks/roadmap_table.py [--out FILE]

Run from the repository root; takes a few minutes and about 1.5 GB at
n=4000.  Each size runs in a fresh process, so peak RSS is per size:

* exit_edges_dual on a trusted seeded set, n in 250, 500, 1000, 2000,
  4000: wall time, peak RSS, and per layer the self time (tracer spans)
  and the peak traced memory of the numpy layers (a tracemalloc pass of
  its own);
* stats_report, dual_triangles and the primal SVG at n=1000.

Prints a Markdown table; --out also writes the numbers as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

SIZES = (250, 500, 1000, 2000, 4000)
ANALYSIS_N = 1000


def _trusted(n: int):
    import exitgraph
    from inputs import sample_points

    rng = random.Random(f"exitgraph-roadmap:{n}")
    return exitgraph.trusted_point_set(sample_points(rng, n, 0, 4 * n * n))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_layers(n: int) -> dict:
    import exitgraph
    from tracer import MemoryProbe, Tracer

    ps = _trusted(n)
    with Tracer() as tracer:
        edges = exitgraph.exit_edges_dual(ps)
    rss = _peak_rss_mib()
    count = len(edges)
    del edges
    with MemoryProbe() as probe:
        exitgraph.exit_edges_dual(ps)
    top = next(s for s in tracer.spans if s[0] == "dual.exit_edges_dual")
    return {"n": n, "edges": count, "wall_s": top[2] - top[1], "peak_rss_mib": rss,
            "self_s": dict(tracer.self_times()),
            "peak_mib": {k: v / 2**20 for k, v in probe.peak_bytes.items()}}


def measure_analysis(n: int) -> dict:
    import exitgraph

    ps = _trusted(n)
    out = {"n": n}
    for label, call in (("stats_report", lambda: exitgraph.stats_report(ps)),
                        ("dual_triangles", lambda: exitgraph.dual_triangles(ps)),
                        ("primal_svg", lambda: exitgraph.render_svg(ps, "primal"))):
        start = time.perf_counter()
        call()
        out[label + "_s"] = time.perf_counter() - start
    out["peak_rss_mib"] = _peak_rss_mib()
    return out


def _in_child(flag: str, value: int) -> dict:
    from run import child_env

    root = Path.cwd()
    proc = subprocess.run([sys.executable, __file__, flag, str(value)], cwd=root,
                          env=child_env(root), stdout=subprocess.PIPE, text=True,
                          check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _table(rows: list[dict], analysis: dict) -> str:
    out = ["| n | exit_edges_dual | peak RSS | tables (np) | scan (np) | group (np) "
           "| rest of exit_edges_dual: ExitEdge building |",
           "|---|---|---|---|---|---|---|"]
    for r in rows:
        s, m = r["self_s"], r["peak_mib"]
        out.append(
            f"| {r['n']} | {r['wall_s']:.2f} s | {r['peak_rss_mib']:.0f} MiB "
            f"| {s.get('fastscan.crossing_tables_np', 0):.2f} s, "
            f"{m.get('fastscan.crossing_tables_np', 0):.0f} MiB peak "
            f"| {s.get('fastscan.scan_exit_items_np', 0):.2f} s, "
            f"{m.get('fastscan.scan_exit_items_np', 0):.0f} MiB peak "
            f"| {s.get('fastscan.group_exit_items_np', 0):.2f} s "
            f"| {s.get('dual.exit_edges_dual', 0):.2f} s ({r['edges']} edges) |")
    out.append("")
    out.append(f"`stats_report` / `dual_triangles` / primal SVG, n={analysis['n']}: "
               f"{analysis['stats_report_s']:.2f} s / {analysis['dual_triangles_s']:.2f} s / "
               f"{analysis['primal_svg_s']:.2f} s")
    return "\n".join(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    parser.add_argument("--layers", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--analysis", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.layers or args.analysis:
        result = measure_layers(args.layers) if args.layers else measure_analysis(args.analysis)
        print(json.dumps(result))
        return 0

    rows = [_in_child("--layers", n) for n in SIZES]
    analysis = _in_child("--analysis", ANALYSIS_N)
    print(_table(rows, analysis))
    if args.out:
        Path(args.out).write_text(json.dumps({"exit_edges_dual": rows, "analysis": analysis},
                                             indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
