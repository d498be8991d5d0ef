"""One benchmark run of one workload, in a fresh process (see run.py).

Prints one JSON line: the monotonic time at which set-up finished, the
attempted and failed operation counts, the untraced operation times and
the run's metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import exitgraph

import inputs
from tracer import MemoryProbe, Tracer, memory_layer_names, per_layer_metrics

# a run never starts an operation after this much time in the process,
# so it ends well inside the 180 s a run may take
DEADLINE_S = 120.0

EXPECTED = Path(__file__).with_name("expected.json")


def _require_program_from(root: Path) -> None:
    src = (root / "src").resolve()
    if src not in Path(exitgraph.__file__).resolve().parents:
        sys.exit(f"exitgraph was imported from {exitgraph.__file__}, not from {src}")


class Session:
    """Runs operations, checks every output outside the timed region and
    counts attempts and failures."""

    def __init__(self, name, workload, pool, seed, recorded):
        self.name, self.workload, self.inputs = name, workload, pool
        self.seed, self.recorded = seed, recorded
        self.fingerprints: dict[int, object] = {}
        self.attempted = self.failed = 0
        self.next_op = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"{self.name}: operation {self.attempted - 1} failed: {message}",
                  file=sys.stderr)

    def _check(self, k: int, out) -> None:
        if k in self.fingerprints:
            # the same input again, already checked: its output must not change
            if self.workload.fingerprint(self.inputs[k], out) != self.fingerprints[k]:
                self._fail("output differs from the first one for the same input")
            return
        recorded = self.recorded[k] if self.recorded else None
        errors = self.workload.check(
            self.inputs[k], out, inputs.check_rng(self.name, self.seed, k), recorded)
        self.fingerprints[k] = self.workload.fingerprint(self.inputs[k], out)
        if errors:
            self._fail("; ".join(errors[:3]))

    def _op(self, k: int, clock=time.perf_counter) -> float:
        """Run one operation on input k, then check its output; returns
        the operation's time on ``clock``."""
        self.attempted += 1
        start = clock()
        try:
            out = self.workload.run(self.inputs[k])
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = clock() - start
            self._fail(f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = clock() - start
        try:
            self._check(k, out)
        except Exception as exc:  # malformed output fails its check
            self._fail(f"check raised {type(exc).__name__}: {exc}")
        return elapsed

    def _next_input(self) -> int:
        k = self.next_op % len(self.inputs)
        self.next_op += 1
        return k

    def _more(self, spent: float, done: int, budget: float) -> bool:
        """Start another operation unless the next one, at the mean time
        so far, would overrun ``budget`` seconds; always at least one."""
        return not done or (spent + spent / done <= budget
                            and time.monotonic() < self.deadline)

    def loop(self, budget: float) -> list[float]:
        """Run operations until the next one would overrun ``budget``
        seconds of operation time; returns their times."""
        durations: list[float] = []
        while self._more(sum(durations), len(durations), budget):
            durations.append(self._op(self._next_input()))
        return durations

    def traced_loop(self, budget: float, tracer) -> list[float]:
        """Pairs of operations on the same input, one plain and one traced,
        until ``budget``; returns each pair's traced / plain time ratio.

        Which of the two runs first alternates from pair to pair, so a
        second run's warmer caches favour neither side.  The traced time
        is read from the tracer's clock, which leaves out the tracer's
        counting as the span times do.
        """
        def traced_op(k: int) -> float:
            with tracer:
                return self._op(k, tracer.now)

        ratios: list[float] = []
        spent = 0.0
        while self._more(spent, len(ratios), budget):
            k = self._next_input()
            tracer.op = len(ratios)
            if len(ratios) % 2:
                plain, traced = self._op(k), traced_op(k)
            else:
                traced, plain = traced_op(k), self._op(k)
            ratios.append(traced / plain)
            spent += plain + traced
        return ratios


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    _require_program_from(Path.cwd())
    sizes = inputs.TINY if args.tiny else inputs.FULL
    pool = inputs.make_inputs(args.workload, args.seed, sizes, Path(args.workdir))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    # the harness's own imports come after set-up
    import workloads

    recorded = None
    if not args.tiny:
        stored = json.loads(EXPECTED.read_text())
        if stored["seed"] == args.seed:
            recorded = stored[args.workload]
    session = Session(args.workload, workloads.WORKLOADS[args.workload], pool, args.seed,
                      recorded)

    durations = []
    if args.trace == 0:
        durations = session.loop(args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": (statistics.median(durations), "s"),
                   "peak_rss_mb": (rss_mib, "MiB")}
    else:
        # plain and traced operations alternate on the same inputs; the
        # memory pass adds one operation
        tracer = Tracer()
        ratios = session.traced_loop(args.seconds * 0.8, tracer)
        probe = None
        called = tracer.calls()
        if any(called.get(name) for name in memory_layer_names()):
            with MemoryProbe() as probe:
                session.loop(0.0)
        overhead = statistics.median(ratios) - 1
        metrics = per_layer_metrics(tracer, probe, len(ratios), overhead)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.dump()))

    print(json.dumps({
        "ready": ready,
        "attempted": session.attempted,
        "failed": session.failed,
        "durations": durations,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
