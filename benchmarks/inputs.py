"""Seeded inputs of the benchmark workloads.

A run draws a pool of POOL inputs from its seed and cycles through them,
so one run's figure averages over several inputs instead of resting on
one.  The same seed gives byte-identical inputs; ``input_bytes`` is the
canonical encoding the self-test compares.
"""

from __future__ import annotations

import random
from pathlib import Path

import exitgraph

POOL = 9

FULL = {
    "cli_n": 500, "large_n": 2000, "big_n": 1500,
    "stats_n": 600, "crossings_n": 36, "outer_n": 32,
    "search_n": 60, "search_trials": 100, "svg_n": 120,
}
# sizes for the self-test; the dual workloads stay at or above the
# vectorized-scan threshold (64) so both backends are still exercised
TINY = {
    "cli_n": 70, "large_n": 70, "big_n": 66,
    "stats_n": 20, "crossings_n": 10, "outer_n": 9,
    "search_n": 8, "search_trials": 4, "svg_n": 8,
}
BIG_COORD = 1 << 40  # above fastscan.MAX_SAFE_COORD = 2^29


def sample_points(rng: random.Random, n: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """n distinct integer points, uniform in the square [lo, hi]^2."""
    seen: set[tuple[int, int]] = set()
    pts: list[tuple[int, int]] = []
    while len(pts) < n:
        p = (rng.randint(lo, hi), rng.randint(lo, hi))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def certified_set(rng: random.Random, n: int):
    """A certified set in [0, 4n^2]^2, redrawn until in general position."""
    while True:
        try:
            return exitgraph.certify_general_position(sample_points(rng, n, 0, 4 * n * n))
        except exitgraph.CollinearTripleError:
            continue


def point_text(points) -> str:
    return "".join(f"{x} {y}\n" for x, y in points)


def _make_one(name: str, rng: random.Random, sizes: dict, workdir: Path, k: int) -> dict:
    if name == "cli_compute":
        n = sizes["cli_n"]
        pts = sample_points(rng, n, 0, 4 * n * n)
        path = workdir / f"cli_points_{k}.txt"
        path.write_text(point_text(pts), encoding="ascii")
        return {"points": pts, "path": str(path), "out": str(workdir / f"cli_out_{k}.json")}
    if name == "dual_large":
        n = sizes["large_n"]
        return {"ps": exitgraph.trusted_point_set(sample_points(rng, n, 0, 4 * n * n))}
    if name == "dual_bigcoord":
        n = sizes["big_n"]
        return {"ps": exitgraph.trusted_point_set(
            sample_points(rng, n, -BIG_COORD, BIG_COORD))}
    if name == "analysis_mix":
        n = sizes["stats_n"]
        return {
            "stats": exitgraph.trusted_point_set(sample_points(rng, n, 0, 4 * n * n)),
            "crossings": certified_set(rng, sizes["crossings_n"]),
            "outer": certified_set(rng, sizes["outer_n"]),
            "search": (sizes["search_n"], sizes["search_trials"], rng.randrange(2**31)),
            "svg": certified_set(rng, sizes["svg_n"]),
        }
    raise ValueError(f"unknown workload {name!r}")


def make_inputs(name: str, seed: int, sizes: dict, workdir: Path) -> list[dict]:
    rng = random.Random(f"exitgraph-bench:{name}:{seed}")
    return [_make_one(name, rng, sizes, workdir, k) for k in range(POOL)]


def input_bytes(inputs: list[dict]) -> bytes:
    """Canonical encoding of a pool, for comparing inputs across runs."""
    parts = []
    for inp in inputs:
        for key in sorted(inp):
            value = inp[key]
            if isinstance(value, exitgraph.PointSet):
                value = point_text(value.int_coords)
            elif key in ("path", "out"):
                value = Path(value).name + ":" + (
                    Path(value).read_text(encoding="ascii") if key == "path" else "")
            parts.append(f"{key}={value}\n")
    return "".join(parts).encode("ascii")


def check_rng(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"exitgraph-bench-check:{name}:{seed}:{k}")
