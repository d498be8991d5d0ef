"""Vectorized crossing table, triangle scan and exit graph for large inputs.

The numpy counterparts of dual.crossing_tables, dual._scan_cells and
dual._exit_graph, on the same data: successor_table_np builds the same
cyclic successor table nxt, as one (n, n) int32 array, scan_codes_np
makes the same lookups in it and finds the same code (a*n + b)*n + w
per unmarked cell, and exit_graph_np groups those codes with one sort
into int32 columns.

All decisions stay exact.  successor_table_np keys each row on the same
correctly rounded float keys as dual._sorted_rows, float64 quotients of
differences that are exact because callers guard the coordinate
magnitude with dual.MAX_SAFE_COORD.  It sorts a block of rows once, in
place, on packed int64 keys: each float key's bits, mapped to an
integer of the same order, with the low bits replaced by the column.
That pre-filter is exact where it decides: the high part left is a
non-decreasing function of the float key, and so of the exact crossing,
and a row whose high parts are pairwise distinct is in exact order.
A row with two equal high parts is argsorted on its float keys, and
reaches dual._exact_row only when two of those are equal.  So
_exact_row receives exactly the rows that it receives from
dual._sorted_rows, and both backends keep one rule: a row goes to the
exact sort iff its float keys tie (see dual's module docstring for why
that suffices).
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
    crossing follows j's on line i, cyclically, and nxt[i, i] = -1.

    Each block is sorted once on packed keys, and a row is sorted again
    only where two of them tie, as the module docstring describes.
    """
    n = len(a)
    # exact: callers keep |a|, |b| <= MAX_SAFE_COORD, so every difference
    # below is an exact float64 and every key a correctly rounded quotient
    AF = np.asarray(a, dtype=np.float64)
    BF = np.asarray(b, dtype=np.float64)
    nxt = np.empty((n, n), dtype=np.int32)
    L = (n - 1).bit_length()  # bits that hold a column
    low = (1 << L) - 1
    cols = np.arange(n, dtype=np.int64)
    step = max(1, _BLOCK_SLOTS // n)
    # two block buffers, reused by every block: fresh ones would take
    # fresh pages each time
    keys = np.empty((step, n), dtype=np.float64)
    work = np.empty((step, n), dtype=np.int64)
    qb = None
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        K, W = keys[: hi - lo], work[: hi - lo]
        D = W.view(np.float64)
        np.subtract(AF[lo:hi, None], AF[None, :], out=D)
        np.fill_diagonal(D[:, lo:hi], 1.0)
        np.subtract(BF[None, :], BF[lo:hi, None], out=K)
        K /= D
        np.fill_diagonal(K[:, lo:hi], np.inf)  # self, the only inf, sorts last and gets dropped
        K += 0.0  # -0.0 to +0.0: equal floats must pack to equal high parts
        # the int64 bits of a float, with a negative float's magnitude
        # bits flipped, order as the floats do
        P = K.view(np.int64)
        np.right_shift(P, 63, out=W)
        W &= 0x7FFF_FFFF_FFFF_FFFF
        P ^= W
        P &= ~low
        P |= cols
        P.sort(axis=1)
        order = np.bitwise_and(P, low, out=W)
        P >>= L  # the high parts, non-decreasing along each row
        for t in np.flatnonzero((P[:, 1:] == P[:, :-1]).any(axis=1)).tolist():
            # two high parts tie: the float keys decide, and only a tie
            # of those sends the row to the exact sort
            i = lo + t
            d = AF[i] - AF
            d[i] = 1.0
            x = BF - BF[i]
            x /= d
            x[i] = np.inf
            order[t] = np.argsort(x)
            x = x[order[t, :-1]]
            if (x[1:] == x[:-1]).any():
                if qb is None:
                    qb = _scaled_intercepts(a, b)
                order[t, :-1] = _exact_row(a, qb, i, order[t, :-1].tolist())
        I = np.arange(lo, hi)[:, None]
        nxt[I, order[:, :-2]] = order[:, 1:-1]
        nxt[I[:, 0], order[:, -2]] = order[:, 0]  # the arc through infinity
    np.fill_diagonal(nxt, -1)
    return nxt


def scan_codes_np(nxt: np.ndarray) -> np.ndarray:
    """The int64 code (a*n + b)*n + w of every unmarked triangular cell,
    as dual._scan_cells finds them in the same successor table, run over
    blocks of rows."""
    n = len(nxt)
    step = max(1, _BLOCK_SLOTS // n)
    return np.concatenate([_scan_block(nxt, lo, min(n, lo + step)) for lo in range(0, n, step)])


def _scan_block(nxt: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The codes of the cells found from lines lo..hi-1 as line i.

    Each cell is found once, from its smallest line i, at the pair j > i,
    k = nxt[i][j] > i, so only the columns j > lo are read.  Each test
    runs only on the slots that passed the ones before it: line j's
    lookups for about 40% of the slots, line k's for about 15%.  Each
    selection keeps its slots through one index array, which numpy
    gathers faster than it applies a boolean mask.
    """
    n = len(nxt)
    flat = nxt.ravel()  # nxt[j][x] is flat[j*n + x]
    K = nxt[lo:hi, lo + 1:]
    I = np.arange(lo, hi, dtype=np.int32)[:, None]
    live = K > I
    live &= np.arange(lo + 1, n, dtype=np.int32) > I
    # int32 labels; the flat indices, up to n^2, and the codes, up to
    # n^3, are computed in int64
    s = np.flatnonzero(live).astype(np.int32)  # a block holds < 2^31 slots
    r = s // (n - lo - 1)
    i, j, k = r + lo, s - r * (n - lo - 1) + (lo + 1), K[live]
    # i and k are adjacent on line j iff one follows the other there;
    # from four lines on, adjacency on all three lines alone decides
    row = j.astype(np.int64) * n
    hj = flat[row + k] == i
    s = np.flatnonzero(hj | (flat[row + i] == k))
    i, j, k, hj = i[s], j[s], k[s], hj[s]
    row = k.astype(np.int64) * n
    hk = flat[row + j] == i
    # hj & ~hk is the marked (cyclic) cell, which gives no code
    s = np.flatnonzero(hk | (~hj & (flat[row + i] == j)))
    i, j, k, hj, hk = i[s], j[s], k[s], hj[s], hk[s]
    # hj (and so hk): the vertex ij, witness k; neither: the vertex ik,
    # witness j; hk alone: the vertex jk, witness i
    alone = hk & ~hj
    a = np.where(alone, np.minimum(j, k), i).astype(np.int64)
    b = np.where(hj, j, np.where(alone, np.maximum(j, k), k))
    w = np.where(hj, k, np.where(alone, i, j))
    return (a * n + b) * n + w


def exit_graph_np(codes: np.ndarray, n: int) -> ExitGraph:
    """The exit graph of scan_codes_np's codes (a*n + b)*n + w, one per
    unmarked cell, as dual._exit_graph builds it from the same codes.

    Sorts ``codes`` in place, once: each vertex's witnesses are then
    adjacent entries, ascending, so a second witness is the next entry,
    and a third the one after it.  The columns are int32, written from
    int64 intermediates without a full-size int64 copy, and each
    temporary is freed before the next one is made.
    """
    codes.sort()
    m = len(codes)
    key = codes // n
    new = np.empty(m + 1, dtype=bool)  # entry t starts a vertex; new[m] ends the last
    new[0] = new[m] = True
    np.not_equal(key[1:], key[:-1], out=new[1:m])
    del key
    # entries t+1 and t+2 continue entry t's vertex: a third witness
    triple = np.flatnonzero(~(new[1:m - 1] | new[2:m]))
    if len(triple):
        raise _triple_witness_error(int(codes[triple[0]] // n), n)
    first = np.flatnonzero(new[:m])
    two = np.flatnonzero(~new[first + 1])  # the vertices with a second witness
    second = first[two] + 1
    del new
    lead = codes[first]
    del first
    w0, a, b = (np.empty(len(lead), dtype=np.int32) for _ in range(3))
    np.remainder(lead, n, out=w0, casting="unsafe")
    lead //= n
    np.floor_divide(lead, n, out=a, casting="unsafe")
    np.remainder(lead, n, out=b, casting="unsafe")
    del lead
    w1 = np.full(len(a), -1, dtype=np.int32)
    w1[two] = codes[second] % n
    return ExitGraph(a, b, w0, w1)
