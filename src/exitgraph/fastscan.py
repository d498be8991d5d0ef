"""Vectorized crossing tables and triangle scan for large inputs.

The numpy counterparts of dual.crossing_tables and of the cell scan
dual._scan_cells, on int64 arrays.  All decisions stay exact: float keys
only pre-sort the crossings, and every adjacent pair is then certified by
an integer sign test; the int64 products cannot overflow because callers
guard the coordinate magnitude with MAX_SAFE_COORD.  Rows that fail
certification are re-sorted with the exact comparator of dual._exact_row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dual import _exact_row

# |a|, |b| <= 2^29 keeps every certification product within int64:
# |n*d| <= (2^30)^2 = 2^60 and |s| <= 2^61
MAX_SAFE_COORD = 1 << 29


def coords_are_safe(a: Sequence[int], b: Sequence[int]) -> bool:
    return (max(map(abs, a), default=0) <= MAX_SAFE_COORD
            and max(map(abs, b), default=0) <= MAX_SAFE_COORD)


def crossing_tables_np(a: Sequence[int], b: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """order (n, n-1) and rank (n, n) matrices of the crossing sequences."""
    n = len(a)
    A = np.asarray(a, dtype=np.int64)
    B = np.asarray(b, dtype=np.int64)
    AF = A.astype(np.float64)
    BF = B.astype(np.float64)
    D = AF[:, None] - AF[None, :]
    np.fill_diagonal(D, 1.0)
    K = (BF[None, :] - BF[:, None]) / D
    np.fill_diagonal(K, np.inf)  # self sorts last, then gets dropped
    order = np.argsort(K, axis=1, kind="stable")[:, : n - 1].astype(np.int32)
    del K, D

    DD = A[:, None] - A[order]
    NN = B[order] - B[:, None]
    S = NN[:, :-1] * DD[:, 1:] - NN[:, 1:] * DD[:, :-1]
    S *= np.sign(DD[:, :-1]) * np.sign(DD[:, 1:])
    bad_rows = np.nonzero((S >= 0).any(axis=1))[0]
    del DD, NN, S
    for i in bad_rows.tolist():
        order[i] = _exact_row(a, b, i, order[i].tolist())

    rank = np.full((n, n), -1, dtype=np.int32)
    np.put_along_axis(rank, order, np.arange(n - 1, dtype=np.int32)[None, :], axis=1)
    return order, rank


def scan_exit_items_np(order: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized unmarked-cell scan.

    Returns (keys, witnesses): one entry per unmarked triangular cell,
    where key = a*n + b encodes the exit vertex pair and witnesses holds
    the witness line.  Same case analysis as dual._scan_cells.
    """
    n, m = order.shape
    m1 = m - 1
    I = np.arange(n, dtype=np.int32)[:, None]
    O = order
    NXT = np.roll(order, -1, axis=1)

    R_JI = rank[O, I]
    R_JK = rank[O, NXT]
    dJ = R_JI - R_JK
    wrapJ = ((R_JI == 0) & (R_JK == m1)) | ((R_JK == 0) & (R_JI == m1))
    validJ = (dJ == 1) | (dJ == -1) | wrapJ
    del dJ

    R_KI = rank[NXT, I]
    R_KJ = rank[NXT, O]
    dK = R_KI - R_KJ
    wrapK = ((R_KI == 0) & (R_KJ == m1)) | ((R_KJ == 0) & (R_KI == m1))
    validK = (dK == 1) | (dK == -1) | wrapK
    del dK

    WRAP = np.zeros((1, m), dtype=bool)
    WRAP[0, m1] = True
    keep = validJ & validK & (O > I) & (NXT > I) & ~(WRAP ^ wrapJ ^ wrapK)
    del validJ, validK

    hJ = np.where(wrapJ, R_JI == 0, R_JI > R_JK)
    hK = np.where(wrapK, R_KI == 0, R_KI > R_KJ)
    del wrapJ, wrapK, R_JI, R_JK, R_KI, R_KJ

    emit = keep & ~(hJ & ~hK)  # drop the marked (cyclic) cell
    m11 = emit & hJ
    m00 = emit & ~hJ & ~hK
    m01 = emit & ~hJ & hK
    del emit, keep, hJ, hK

    # keys in int64: n*n may exceed int32 for very large inputs
    II = np.broadcast_to(I, O.shape)
    keys = [II[m11].astype(np.int64) * n + O[m11],
            II[m00].astype(np.int64) * n + NXT[m00]]
    wits = [NXT[m11], O[m00]]
    jj = O[m01]
    kk = NXT[m01]
    keys.append(np.minimum(jj, kk).astype(np.int64) * n + np.maximum(jj, kk))
    wits.append(II[m01])
    return np.concatenate(keys), np.concatenate(wits)


def group_exit_items_np(keys: np.ndarray, wits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort by key and group; returns (unique_keys, starts, counts, wits_sorted)."""
    idx = np.argsort(keys, kind="stable")
    ks = keys[idx]
    ws = wits[idx]
    uniq, starts, counts = np.unique(ks, return_index=True, return_counts=True)
    return uniq, starts, counts, ws
