"""Benchmark of exitgraph: one run of one workload, metrics as JSON.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload cli_compute --seed 0 --seconds 55 --trace 0

Workloads (see workloads.py for why each was chosen): cli_compute and
analysis_mix are the gated ones listed in BENCHMARK.json; dual_large and
dual_bigcoord run the same way and serve as reference measurements of
the exit_edges_dual backends.

``--trace 0`` reports the end-to-end metrics: wall_s (median time of one
operation), peak_rss_mb (process high-water RSS) and setup_s (interpreter
start, ``import exitgraph`` and input generation, median of several
fresh processes spread over the run).  ``--trace 1`` reports the per-layer metrics of a
traced run (see tracer.py).  Every output is checked outside the timed
region; failed / attempted is the failure fraction.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.

The program is imported from ./src of the checkout.  Each run is a fresh
single process (RSS is process-wide, and import cost belongs to
setup_s); set-up probes run one after another, never in parallel, with
BLAS/OpenMP limited to one thread.  The program's garbage collector stays
enabled, as users have it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("cli_compute", "dual_large", "dual_bigcoord", "analysis_mix")
WORKER = Path(__file__).with_name("worker.py")
# set-up probes before and after the measured process: spreading them
# over the run keeps a short slow spell of the host from setting setup_s
SETUP_PROBES_BEFORE = SETUP_PROBES_AFTER = 3
RUN_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(argv: list[str], root: Path, env: dict, deadline: float) -> dict:
    """Run one worker to completion; returns its JSON line plus setup_s,
    the time from spawn to the end of its set-up."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (seconds instead of minutes)")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "exitgraph" / "__init__.py").is_file():
        print(f"error: no exitgraph sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    env = child_env(root)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=root))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    if args.tiny:
        common.append("--tiny")

    def probe_setup(count: int) -> list[float]:
        argv = common + ["--seconds", "0", "--trace", "0", "--setup-only"]
        return [_spawn(argv, root, env, deadline)["setup_s"] for _ in range(count)]

    try:
        setups = probe_setup(SETUP_PROBES_BEFORE) if args.trace == 0 else []
        argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans = root / ".bench_traces" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(exist_ok=True)
            argv += ["--spans-out", str(spans)]
        result = _spawn(argv, root, env, deadline)
        if args.trace == 0:
            setups += [result["setup_s"]] + probe_setup(SETUP_PROBES_AFTER)
    except RunError as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted, failed = result["attempted"], result["failed"]
    if result["durations"]:
        print(f"{args.workload}  operation times (s): "
              + " ".join(f"{d:.4f}" for d in result["durations"]))
    for name, m in metrics.items():
        print(f"{args.workload}  {name:<52} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  {'fail_frac':<52} {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
