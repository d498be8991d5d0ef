"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 benchmarks/spread.py --runs 10 [--workloads dual_large ...] [--out FILE]

Runs benchmarks/run.py once per seed (seeds 1..runs) and workload, one run
at a time, and prints for every metric the median and the spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
bounds in BENCHMARK.json are meant to stay above three times that spread.
With --out, every run's metrics and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    spec = json.loads(BENCH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {"run_seconds": spec["run_seconds"]}
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["log"] = lines[:-1]
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} operations failed",
                      file=sys.stderr)
            runs.append({"seed": seed, **result})
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            if len(values) >= 2 and statistics.median(values) != 0:
                med, rel = spread(values)
            else:
                med, rel = statistics.median(values), 0.0
            summary[metric] = {"median": med, "spread": rel,
                               "unit": runs[0]["metrics"][metric]["unit"]}
            bound = bounds.get(metric)
            note = f"  bound {bound} (spread/bound {rel / bound:.2f})" if bound else ""
            print(f"{workload:<14} {metric:<52} median {med:.6g}  spread {rel:.4f}{note}")
        report[workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
