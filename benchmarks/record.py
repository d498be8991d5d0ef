"""Record what the default seed's checks compare against (expected.json).

    python3 benchmarks/record.py

Run from the repository root.  For seed 0 at full size it runs each
workload once per pool input, checks the output as a run would, and
stores the canonical edge-list digests (cli_compute, dual_large,
dual_bigcoord) and the crossing counts (analysis_mix).  The stored
values are those of the commit that recorded them; a later change that
alters them has changed the program's answers.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import inputs  # noqa: E402
import workloads  # noqa: E402
from worker import EXPECTED  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    recorded: dict = {"seed": DEFAULT_SEED}
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        for name, wl in workloads.WORKLOADS.items():
            values = []
            for k, inp in enumerate(inputs.make_inputs(name, DEFAULT_SEED, inputs.FULL, workdir)):
                out = wl.run(inp)
                errors = wl.check(inp, out, inputs.check_rng(name, DEFAULT_SEED, k), None)
                if errors:
                    sys.exit(f"{name} input {k} fails its checks: {errors[:3]}")
                values.append(wl.recorded(inp, out))
                del out
            recorded[name] = values
            print(f"{name}: {values}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
