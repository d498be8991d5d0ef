"""Vectorized crossing table, triangle scan and exit graph for large inputs.

The numpy counterparts of dual.crossing_tables, dual._scan_cells and
dual._exit_graph, on the same data: successor_table_np builds the same
cyclic successor table nxt, as one (n, n) int32 array, scan_codes_np
makes the same lookups in it and finds the same code (a*n + b)*n + w
per unmarked cell, and exit_graph_np groups those codes with one sort.
All decisions stay exact: successor_table_np sorts each row on the same
correctly rounded float keys as dual._sorted_rows, float64 quotients of
differences that are exact because callers guard the coordinate
magnitude with dual.MAX_SAFE_COORD, and re-sorts a row by
dual._exact_row only when two adjacent sorted keys are equal (see
dual's module docstring for why that suffices).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dual import ExitGraph, _exact_row, _scaled_intercepts, _triple_witness_error

# slots (row entries) per block of the table and of the scan: small
# enough that a block's temporaries stay in cache, large enough that
# numpy's per-call cost is spread over many slots
_BLOCK_SLOTS = 1 << 16


def successor_table_np(a: Sequence[int], b: Sequence[int]) -> np.ndarray:
    """The successor table of dual.crossing_tables as an (n, n) int32
    array, built over blocks of rows: nxt[i, j] is the line whose
    crossing follows j's on line i, cyclically, and nxt[i, i] = -1."""
    n = len(a)
    # exact: callers keep |a|, |b| <= MAX_SAFE_COORD, so every difference
    # below is an exact float64 and every key a correctly rounded quotient
    AF = np.asarray(a, dtype=np.float64)
    BF = np.asarray(b, dtype=np.float64)
    nxt = np.empty((n, n), dtype=np.int32)
    step = max(1, _BLOCK_SLOTS // n)
    qb = None
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        D = AF[lo:hi, None] - AF[None, :]
        np.fill_diagonal(D[:, lo:hi], 1.0)
        K = BF[None, :] - BF[lo:hi, None]
        K /= D
        np.fill_diagonal(K[:, lo:hi], np.inf)  # self, the only inf, sorts last and gets dropped
        # numpy's default sort, about 4x faster than kind="stable" here;
        # the order of equal keys does not matter, since their rows are
        # re-sorted exactly below
        order = np.argsort(K, axis=1)[:, : n - 1]
        K = np.take_along_axis(K, order, axis=1)
        for t in np.flatnonzero((K[:, 1:] == K[:, :-1]).any(axis=1)).tolist():
            if qb is None:
                qb = _scaled_intercepts(a, b)
            order[t] = _exact_row(a, qb, lo + t, order[t].tolist())
        I = np.arange(lo, hi)[:, None]
        nxt[I, order[:, :-1]] = order[:, 1:]
        nxt[I[:, 0], order[:, -1]] = order[:, 0]  # the arc through infinity
    np.fill_diagonal(nxt, -1)
    return nxt


def scan_codes_np(nxt: np.ndarray) -> np.ndarray:
    """The int64 code (a*n + b)*n + w of every unmarked triangular cell,
    as dual._scan_cells finds them in the same successor table, run over
    blocks of rows."""
    n = len(nxt)
    step = max(1, _BLOCK_SLOTS // n)
    codes: list[np.ndarray] = []
    for lo in range(0, n, step):
        codes += _scan_block(nxt, lo, min(n, lo + step))
    return np.concatenate(codes)


def _scan_block(nxt: np.ndarray, lo: int, hi: int) -> list[np.ndarray]:
    """The codes of the cells found from lines lo..hi-1 as line i.

    Each cell is found once, from its smallest line i, at the pair j > i,
    k = nxt[i][j] > i, so only the columns j > lo are read.  Each test
    runs only on the slots that passed the ones before it: line j's
    lookups for about 40% of the slots, line k's for about 15%.
    """
    n = len(nxt)
    flat = nxt.ravel()  # nxt[j][x] is flat[j*n + x]
    K = nxt[lo:hi, lo + 1:]
    I = np.arange(lo, hi)[:, None]
    r, c = np.nonzero((np.arange(lo + 1, n) > I) & (K > I))
    # int64: the codes, up to n^3, and the flat indices, up to n^2,
    # may exceed int32 for large inputs
    i, j, k = r + lo, c + (lo + 1), K[r, c].astype(np.int64)
    # i and k are adjacent on line j iff one follows the other there;
    # from four lines on, adjacency on all three lines alone decides
    row = j * n
    hj = flat[row + k] == i
    sel = hj | (flat[row + i] == k)
    i, j, k, hj = i[sel], j[sel], k[sel], hj[sel]
    row = k * n
    hk = flat[row + j] == i
    sel = hk | (flat[row + i] == j)
    i, j, k, hj, hk = i[sel], j[sel], k[sel], hj[sel], hk[sel]
    # hj & ~hk is the marked (cyclic) cell, which gives no code
    m11 = hj & hk
    m00 = ~hj & ~hk
    m01 = ~hj & hk
    jj, kk = j[m01], k[m01]
    return [(i[m11] * n + j[m11]) * n + k[m11],
            (i[m00] * n + k[m00]) * n + j[m00],
            (np.minimum(jj, kk) * n + np.maximum(jj, kk)) * n + i[m01]]


def exit_graph_np(codes: np.ndarray, n: int) -> ExitGraph:
    """The exit graph of scan_codes_np's codes (a*n + b)*n + w, one per
    unmarked cell, as dual._exit_graph builds it from the same codes.

    Sorts ``codes`` in place, once: each vertex's witnesses are then
    adjacent entries, ascending, so a second witness is the next entry,
    and a third the one after it.
    """
    codes.sort()
    key, w = np.divmod(codes, n)
    same = key[1:] == key[:-1]  # entry t+1 is another witness of entry t's vertex
    triple = np.flatnonzero(same[1:] & same[:-1])
    if len(triple):
        raise _triple_witness_error(int(key[triple[0]]), n)
    first = np.append(True, ~same)
    w1 = np.append(np.where(same, w[1:], -1), -1)
    return ExitGraph(key[first] // n, key[first] % n, w[first], w1[first])
