"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 benchmarks/selftest.py

Run from the repository root.  It checks that

* a --tiny run of every workload, untraced and traced, prints every
  metric BENCHMARK.json names with its unit, and the failure fraction,
  and that no operation fails;
* a corrupted result (one edge dropped, one witness changed, a wrong
  crossing count or verdict) fails its check and so counts as a failed
  operation;
* the same seed regenerates byte-identical inputs, and another seed
  changes them.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import exitgraph  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from checks import canonical_digest, rows_of_edges  # noqa: E402
from run import WORKLOADS as NAMES  # noqa: E402
from worker import Session  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check_printed_metrics() -> None:
    for name in NAMES:
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = subprocess.run(
                [*SPEC["command"], "--workload", name, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, text=True, check=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == {m["name"]: m["unit"] for m in listed}, (name, trace, printed)
            for metric, unit in printed.items():
                assert any(metric in line and line.endswith(unit) for line in lines[:-1]), metric
            assert any("fail_frac" in line for line in lines[:-1])
    print(f"ok: every metric printed with its unit for {', '.join(NAMES)}")


def _fails(name: str, pool: list, corrupt, recorded) -> bool:
    """Does one operation whose output is corrupted count as failed?"""
    real = workloads.WORKLOADS[name]
    bad = dataclasses.replace(real, run=lambda inp: corrupt(real.run(inp)))
    session = Session(name, bad, pool[:1], 5, [recorded])
    session.loop(0.0)
    return session.attempted == 1 and session.failed == 1


def _other_witness(n: int, e) -> int:
    return next(c for c in range(n) if c not in e.endpoints and c not in e.witnesses)


def check_corruption(workdir: Path) -> None:
    for name in ("dual_large", "dual_bigcoord"):
        pool = inputs.make_inputs(name, 5, inputs.TINY, workdir)
        edges = workloads.WORKLOADS[name].run(pool[0])
        recorded = canonical_digest(rows_of_edges(edges))
        n = len(pool[0]["ps"])
        e = edges[len(edges) // 2]
        changed = exitgraph.ExitEdge(e.endpoints, frozenset({_other_witness(n, e)}))
        assert not _fails(name, pool, lambda out: out, recorded)
        assert _fails(name, pool, lambda out: out[:7] + out[8:], recorded)
        assert _fails(name, pool, lambda out: tuple(changed if x == e else x
                                                    for x in out), recorded)

    # without a recorded digest, the oracle sample alone catches a changed
    # witness once the sample covers the whole list
    ps = inputs.certified_set(inputs.check_rng("selftest", 5, 0), 12)
    pool = [{"ps": ps}]
    edges = exitgraph.exit_edges_dual(ps)
    e = edges[0]
    changed = exitgraph.ExitEdge(e.endpoints, frozenset({_other_witness(12, e)}))
    assert not _fails("dual_large", pool, lambda out: out, None)
    assert _fails("dual_large", pool, lambda out: (changed,) + out[1:], None)

    pool = inputs.make_inputs("cli_compute", 5, inputs.TINY, workdir)
    wl = workloads.WORKLOADS["cli_compute"]
    recorded = wl.recorded(pool[0], wl.run(pool[0]))

    def rewrite(edit):
        def corrupt(rc):
            path = Path(pool[0]["out"])
            doc = json.loads(path.read_text())
            edit(doc["exit_edges"])
            path.write_text(json.dumps(doc))
            return rc
        return corrupt

    def swap_witness(edges):
        e = edges[3]
        e["witnesses"] = [next(c for c in range(len(pool[0]["points"]))
                               if c not in e["endpoints"] and c not in e["witnesses"])]

    assert not _fails("cli_compute", pool, lambda rc: rc, recorded)
    assert _fails("cli_compute", pool, rewrite(lambda edges: edges.pop(5)), recorded)
    assert _fails("cli_compute", pool, rewrite(swap_witness), recorded)

    pool = inputs.make_inputs("analysis_mix", 5, inputs.TINY, workdir)
    out = workloads.WORKLOADS["analysis_mix"].run(pool[0])
    recorded = out["crossings"]
    stats = out["stats"]
    failing = dataclasses.replace(
        stats, verdicts={**stats.verdicts, "sum_t_is_three_triangles": False})
    assert not _fails("analysis_mix", pool, lambda o: o, recorded)
    assert _fails("analysis_mix", pool, lambda o: {**o, "crossings": o["crossings"] + 1},
                  recorded)
    assert _fails("analysis_mix", pool, lambda o: {**o, "stats": failing}, recorded)
    print("ok: dropped edges, changed witnesses, wrong counts and verdicts fail")


def check_inputs_reproducible(workdir: Path) -> None:
    for name in NAMES:
        def encode(seed):
            return inputs.input_bytes(inputs.make_inputs(name, seed, inputs.TINY, workdir))

        assert encode(7) == encode(7), name
        assert encode(7) != encode(8), name
    print("ok: same seed gives byte-identical inputs, another seed different ones")


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        check_inputs_reproducible(workdir)
        check_corruption(workdir)
        check_printed_metrics()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
