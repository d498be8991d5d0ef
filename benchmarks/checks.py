"""Output checks for the benchmark, run outside the timed region.

An exit-edge list is first turned into an integer array, one row per
edge: (a, b, first witness, second witness or -1, witness count).  The
structural checks run on the whole array; the definition oracle
``is_exit_edge_with_witness`` then confirms a seeded sample, because
running it on every pair is O(n^4).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

# oracle sample sizes per checked output
POSITIVE_EDGES = 100  # every witness of these edges must pass the oracle
COMPLETE_EDGES = 2  # no other point may witness these edges
UNREPORTED_PAIRS = 6  # no point may witness these pairs


def edge_rows(items) -> np.ndarray:
    """(endpoints, witnesses) pairs as an int64 array of shape (E, 5).

    Built with fromiter, without an intermediate list, so checking a large
    result does not raise the process's peak memory above the operation's.
    """
    def flat():
        for endpoints, witnesses in items:
            a, b = endpoints
            ws = sorted(witnesses)
            k = len(ws)
            yield a
            yield b
            yield ws[0] if k else -1
            yield ws[1] if k > 1 else -1
            yield k

    return np.fromiter(flat(), dtype=np.int64).reshape(-1, 5)


def rows_of_edges(edges) -> np.ndarray:
    return edge_rows((e.endpoints, e.witnesses) for e in edges)


def canonical_digest(rows: np.ndarray) -> str:
    """SHA-256 of the edge list sorted by (a, b, witnesses)."""
    a, b, w0, w1 = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3]
    order = np.lexsort((w1, w0, b, a))
    canon = np.ascontiguousarray(rows[order, :4], dtype="<i8")
    return hashlib.sha256(canon.tobytes()).hexdigest()


def edge_count_bounds(n: int) -> tuple[int, int]:
    """ceil((3n - 7) / 5) <= E <= floor(n (n - 1) / 3)."""
    return -(-(3 * n - 7) // 5), n * (n - 1) // 3


def structural_errors(rows: np.ndarray, n: int) -> list[str]:
    errors = []
    e = len(rows)
    lo, hi = edge_count_bounds(n)
    if not lo <= e <= hi:
        errors.append(f"{e} exit edges outside [{lo}, {hi}] for n={n}")
    a, b, w0, w1, k = rows.T
    two = k == 2
    if not ((k == 1) | two).all():
        errors.append("an edge has no or more than two witnesses")
    if not ((0 <= a) & (a < b) & (b < n)).all():
        errors.append("an endpoint pair is out of range or not ascending")
    if not ((0 <= w0) & (w0 < n)).all():
        errors.append("a witness is out of range")
    if not np.where(two, (0 <= w1) & (w1 < n) & (w1 != w0), w1 == -1).all():
        errors.append("a second witness is out of range or repeated")
    if ((w0 == a) | (w0 == b) | (two & ((w1 == a) | (w1 == b)))).any():
        errors.append("a witness coincides with an endpoint")
    keys = np.sort(a * n + b)
    if (np.diff(keys) == 0).any():
        errors.append("an endpoint pair is reported twice")
    return errors


def oracle_errors(ps, rows: np.ndarray, rng: random.Random) -> list[str]:
    """Confirm a seeded sample of reported and unreported pairs."""
    from exitgraph.oracle import is_exit_edge_with_witness as holds

    n = len(ps)
    e = len(rows)
    errors = []
    for r in rng.sample(range(e), min(e, POSITIVE_EDGES)):
        a, b, w0, w1, _k = rows[r].tolist()
        for w in (w0, w1) if w1 >= 0 else (w0,):
            if not holds(ps, a, b, w):
                errors.append(f"oracle rejects edge ({a},{b}) with witness {w}")
    for r in rng.sample(range(e), min(e, COMPLETE_EDGES)):
        a, b, w0, w1, _k = rows[r].tolist()
        for c in range(n):
            if c not in (a, b, w0, w1) and holds(ps, a, b, c):
                errors.append(f"edge ({a},{b}) misses witness {c}")
    keys = np.sort(rows[:, 0] * n + rows[:, 1])
    unreported = n * (n - 1) // 2 - e
    seen: set[tuple[int, int]] = set()
    while len(seen) < min(unreported, UNREPORTED_PAIRS):
        a, b = sorted(rng.sample(range(n), 2))
        key = a * n + b
        pos = int(np.searchsorted(keys, key))
        if (pos < e and keys[pos] == key) or (a, b) in seen:
            continue
        seen.add((a, b))
        for c in range(n):
            if c not in (a, b) and holds(ps, a, b, c):
                errors.append(f"unreported pair ({a},{b}) has witness {c}")
    return errors


def edge_errors(ps, rows: np.ndarray, rng: random.Random,
                expected_digest: str | None) -> list[str]:
    """Every check on one exit-edge list; empty when it passes."""
    errors = structural_errors(rows, len(ps))
    if errors:
        return errors
    errors = oracle_errors(ps, rows, rng)
    if expected_digest is not None and canonical_digest(rows) != expected_digest:
        errors.append("edge list differs from the one recorded for this seed")
    return errors
