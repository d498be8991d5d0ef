"""Vectorized crossing tables, triangle scan and exit graph for large inputs.

The numpy counterparts of the pure-Python tables, cell scan and
builder of dual.py, on integer arrays.  Where dual.crossing_tables keeps a
cyclic successor table, crossing_tables_np keeps the order and rank
tables, and scan_exit_items_np reads adjacency from rank differences;
both scans find the same (exit vertex, witness) pairs, and
exit_graph_np groups them, as dual._exit_graph does, with one sort of
their codes key*n + w.  All decisions stay exact: crossing_tables_np
sorts each row on the same correctly rounded float keys as
dual._sorted_rows, float64 quotients of differences that are exact
because callers guard the coordinate magnitude with MAX_SAFE_COORD, and
re-sorts a row by dual._exact_row only when two adjacent sorted keys are
equal (see dual's module docstring for why that suffices).
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
    # exact: callers keep |a|, |b| <= MAX_SAFE_COORD, so every difference
    # below is an exact float64 and every key a correctly rounded quotient
    AF = np.asarray(a, dtype=np.float64)
    BF = np.asarray(b, dtype=np.float64)
    order = np.empty((n, n - 1), dtype=np.int32)
    step = max(1, _BLOCK_SLOTS // n)
    bad_rows = []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        rows = np.arange(hi - lo)
        D = AF[lo:hi, None] - AF[None, :]
        D[rows, rows + lo] = 1.0
        K = BF[None, :] - BF[lo:hi, None]
        K /= D
        K[rows, rows + lo] = np.inf  # self, the only inf, sorts last and gets dropped
        # numpy's default sort, about 4x faster than kind="stable" here;
        # the order of equal keys does not matter, since their rows are
        # re-sorted exactly below
        block = np.argsort(K, axis=1)[:, : n - 1]
        order[lo:hi] = block
        K = np.take_along_axis(K, block, axis=1)
        bad_rows += (np.flatnonzero((K[:, 1:] == K[:, :-1]).any(axis=1)) + lo).tolist()
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
    step = max(1, _BLOCK_SLOTS // m)
    keys: list[np.ndarray] = []
    wits: list[np.ndarray] = []
    for lo in range(0, n, step):
        _scan_block(order, flat, lo, min(n, lo + step), keys, wits)
    return np.concatenate(keys), np.concatenate(wits)


def _scan_block(order: np.ndarray, flat: np.ndarray, lo: int, hi: int,
                keys: list[np.ndarray], wits: list[np.ndarray]) -> None:
    """Append the unmarked cells found from lines lo..hi-1 as line i;
    flat is rank raveled, so rank[j][x] is flat[j*n + x].

    Each test runs only on the slots that passed the ones before it, so
    the random gathers from rank are read for few slots: line j's for
    those where j > i and k > i (about 40% of them), line k's for those
    where lines i and k are adjacent on line j too (about 15%).
    """
    n, m = order.shape
    m1 = m - 1
    O = order[lo:hi]  # j, each crossing of line i
    NXT = np.roll(O, -1, axis=1)  # k, the next one; the last column wraps
    I = np.arange(lo, hi, dtype=order.dtype)[:, None]
    # each cell is found once, from its smallest line i
    sel = (O > I) & (NXT > I)
    i, j, k = np.broadcast_to(I, O.shape)[sel], O[sel], NXT[sel]
    # dj = rank[j][i] - rank[j][k]: i and k are adjacent on line j iff
    # |dj| is 1 or m - 1 (cyclically); from four lines on, adjacency on
    # all three lines alone decides (see dual._scan_cells)
    row = j.astype(np.int64) * n
    dJ = flat[row + i] - flat[row + k]
    aJ = np.abs(dJ)
    sel = (aJ == 1) | (aJ == m1)
    i, j, k, dJ = i[sel], j[sel], k[sel], dJ[sel]
    # dk = rank[k][i] - rank[k][j], likewise on line k
    row = k.astype(np.int64) * n
    dK = flat[row + i] - flat[row + j]
    aK = np.abs(dK)
    sel = (aK == 1) | (aK == m1)
    i, j, k, dJ, dK = i[sel], j[sel], k[sel], dJ[sel], dK[sel]
    hJ = (dJ == 1) | (dJ == -m1)
    hK = (dK == 1) | (dK == -m1)
    # hJ & ~hK is the marked (cyclic) cell, which gives no item
    m11 = hJ & hK
    m00 = ~hJ & ~hK
    m01 = ~hJ & hK

    # keys in int64: n*n may exceed int32 for very large inputs
    jj = j[m01]
    kk = k[m01]
    keys += [i[m11].astype(np.int64) * n + j[m11],
             i[m00].astype(np.int64) * n + k[m00],
             np.minimum(jj, kk).astype(np.int64) * n + np.maximum(jj, kk)]
    wits += [k[m11], j[m00], i[m01]]


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
