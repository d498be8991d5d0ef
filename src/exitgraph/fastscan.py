"""Vectorized crossing tables, triangle scan and exit graph for large inputs.

The numpy counterparts of the pure-Python tables, cell scan and
builder of dual.py, on int64 arrays.  Where dual.crossing_tables keeps a
cyclic successor table, crossing_tables_np keeps the order and rank
tables, and scan_exit_items_np reads adjacency from rank differences;
both scans find the same (exit vertex, witness) pairs, and
exit_graph_np groups them, as dual._exit_graph does, with one sort of
their codes key*n + w.  All decisions stay exact: float keys
only pre-sort the crossings, and every adjacent pair is then certified by
an integer sign test; the int64 products cannot overflow because callers
guard the coordinate magnitude with MAX_SAFE_COORD.  Rows that fail
certification are re-sorted by dual._exact_row, on the exact integer keys
that sort every row of dual.crossing_tables (int64 cannot hold those
keys, so numpy keeps the float filter).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# MAX_SAFE_COORD and coords_are_safe live in dual, which tests them before
# it imports this module (and numpy); they are re-exported here
from .dual import (MAX_SAFE_COORD, ExitGraph, _exact_row, _scaled_intercepts,  # noqa: F401
                   _triple_witness_error, coords_are_safe)

# slots (row entries) per block of the tables and of the scan: small
# enough that a block's temporaries stay in cache, large enough that
# numpy's per-call cost is spread over many slots
_BLOCK_SLOTS = 1 << 16


def crossing_tables_np(a: Sequence[int], b: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """order (n, n-1) and rank (n, n) matrices of the crossing sequences,
    built over blocks of rows."""
    n = len(a)
    A = np.asarray(a, dtype=np.int64)
    B = np.asarray(b, dtype=np.int64)
    AF = A.astype(np.float64)
    BF = B.astype(np.float64)
    order = np.empty((n, n - 1), dtype=np.int32)
    step = max(1, _BLOCK_SLOTS // n)
    bad_rows = []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = np.arange(hi - lo)
        D = AF[lo:hi, None] - AF[None, :]
        D[rows, rows + lo] = 1.0
        K = (BF[None, :] - BF[lo:hi, None]) / D
        K[rows, rows + lo] = np.inf  # self, the only inf, sorts last and gets dropped
        # numpy's default sort, about 4x faster than kind="stable" here;
        # the order of equal float keys does not matter, since every
        # adjacent pair is certified exactly below
        block = np.argsort(K, axis=1)[:, : n - 1]
        order[lo:hi] = block

        DD = A[lo:hi, None] - A[block]
        NN = B[block] - B[lo:hi, None]
        S = NN[:, :-1] * DD[:, 1:] - NN[:, 1:] * DD[:, :-1]
        S *= np.sign(DD[:, :-1]) * np.sign(DD[:, 1:])
        bad_rows += (np.nonzero((S >= 0).any(axis=1))[0] + lo).tolist()
    qb = _scaled_intercepts(a, b)
    for i in bad_rows:
        order[i] = _exact_row(a, qb, i, order[i].tolist())

    rank = np.full((n, n), -1, dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(n - 1, dtype=np.int32)[None, :], axis=1)
    return order, rank


def scan_exit_items_np(order: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized unmarked-cell scan.

    Returns (keys, witnesses): one entry per unmarked triangular cell,
    where key = a*n + b encodes the exit vertex pair and witnesses holds
    the witness line.  Same case analysis as dual._scan_cells, on the
    rank differences d, run over blocks of rows of ``order``.
    """
    n, m = order.shape
    flat = rank.ravel()
    rank_t = np.ascontiguousarray(rank.T)  # rank_t[i, j] = rank[j, i]
    step = max(1, _BLOCK_SLOTS // m)
    keys: list[np.ndarray] = []
    wits: list[np.ndarray] = []
    for lo in range(0, n, step):
        _scan_block(order, flat, rank_t, lo, min(n, lo + step), keys, wits)
    return np.concatenate(keys), np.concatenate(wits)


def _scan_block(order: np.ndarray, flat: np.ndarray, rank_t: np.ndarray, lo: int, hi: int,
                keys: list[np.ndarray], wits: list[np.ndarray]) -> None:
    """Append the unmarked cells found from lines lo..hi-1 as line i;
    flat is rank raveled and rank_t its transpose."""
    n, m = order.shape
    m1 = m - 1
    O = order[lo:hi]  # j, each crossing of line i
    NXT = np.roll(O, -1, axis=1)  # k, the next one; the last column wraps
    I = np.arange(lo, hi, dtype=order.dtype)[:, None]
    # dj = rank[j][i] - rank[j][k] and dk = rank[k][i] - rank[k][j]
    dJ = np.take_along_axis(rank_t[lo:hi], O, axis=1) - flat[O.astype(np.int64) * n + NXT]
    dK = np.take_along_axis(rank_t[lo:hi], NXT, axis=1) - flat[NXT.astype(np.int64) * n + O]
    aJ = np.abs(dJ)
    aK = np.abs(dK)
    # from four lines on, adjacency alone decides (see dual._scan_cells)
    keep = ((aJ == 1) | (aJ == m1)) & ((aK == 1) | (aK == m1)) & (O > I) & (NXT > I)
    hJ = (dJ == 1) | (dJ == -m1)
    hK = (dK == 1) | (dK == -m1)
    emit = keep & ~(hJ & ~hK)  # drop the marked (cyclic) cell
    m11 = emit & hJ
    m00 = emit & ~hJ & ~hK
    m01 = emit & ~hJ & hK

    # keys in int64: n*n may exceed int32 for very large inputs
    II = np.broadcast_to(I, O.shape)
    jj = O[m01]
    kk = NXT[m01]
    keys += [II[m11].astype(np.int64) * n + O[m11],
             II[m00].astype(np.int64) * n + NXT[m00],
             np.minimum(jj, kk).astype(np.int64) * n + np.maximum(jj, kk)]
    wits += [NXT[m11], O[m00], II[m01]]


def exit_graph_np(keys: np.ndarray, wits: np.ndarray, n: int) -> ExitGraph:
    """The exit graph of scan_exit_items_np's items, as dual._exit_graph
    builds it from the pure-Python scan's: each unmarked cell gives the
    exit vertex key a*n + b in keys and its witness line in wits.

    One sort of the codes key*n + w puts each vertex's witnesses in
    adjacent entries, ascending: a second witness is the next entry, and
    a third the one after it.
    """
    # key*n + w < n^3, which int64 holds for every n below 2^21
    codes = keys * n + wits
    codes.sort()
    key, w = np.divmod(codes, n)
    same = key[1:] == key[:-1]  # entry t+1 is another witness of entry t's vertex
    triple = np.flatnonzero(same[1:] & same[:-1])
    if len(triple):
        raise _triple_witness_error(int(key[triple[0]]), n)
    first = np.append(True, ~same)
    w1 = np.append(np.where(same, w[1:], -1), -1)
    return ExitGraph(key[first] // n, key[first] % n, w[first], w1[first])
