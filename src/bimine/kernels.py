"""The fill of the alignment score table, kept as the moves a traceback walks.

One function, ``fill``, fills many tables at once.  Its lanes broadcast
as numpy's do: K similarity matrices with one gap penalty (a block of
mined document pairs), one matrix with T gap penalties (the trials of
tuning), or K of each.  The matrices are zero-padded on the bottom and
right to one shape ``(n, m)``.  Every cell gets

    dp[i, j] = max(dp[i-1, j-1] + c, max(dp[i-1, j] - gap, dp[i, j-1] - gap))
    c        = mismatch + sim[i-1, j-1] * (bonus - mismatch)

evaluated with numpy one anti-diagonal at a time: every cell of a
diagonal reads only the two previous diagonals, so a whole diagonal is
one vector step over ``k x L`` cells.  A diagonal ``d = i + j`` is held
as a row indexed by ``i``, so the up, left and diagonal neighbours of
its cells ``lo..hi`` are the slices ``lo-1..hi-1`` and ``lo..hi`` of
row ``d-1`` and ``lo-1..hi-1`` of row ``d-2``.  The cost table and the
moves are C-contiguous ``(n+1, m+1, ...)`` arrays; flattened, cell
``(i, j)`` sits at ``i*(m+1) + j``, so the cells of a diagonal are the
basic slice ``[lo*m + d : hi*m + d + 1 : m]``.  A diagonal step is eight
``out=`` ufunc calls on views -- no index arrays, no gathers, no copies.

A traceback only asks which candidate won at each cell, so ``fill``
keeps no table: the values live on three rolling diagonal rows, and
every interior cell of every lane records two one-byte moves,

    diag = dp[i-1, j-1] + c >= max(dp[i-1, j] - gap, dp[i, j-1] - gap)
    up   = dp[i-1, j] - gap >= dp[i, j-1] - gap

which hold exactly when the cell equals its diagonal candidate, and
(when it does not) its up candidate; ties resolve diagonal first, then
up, then left.  ``fill_sequential`` runs the same sweep with every
diagonal kept, as rows that are strided views of one ``(n+1, m+1)``
table.  Each lane is bit-identical to filling it alone, which the test
suite checks against a plain-loop oracle: no cell reads a cell below or
to the right of it, so a padded matrix's own ``(n_k+1, m_k+1)`` region
never sees the padding.  The mapped-cost table has one lane per matrix,
so one matrix filled for T gaps keeps it one lane wide.

``align.kept_cells`` bounds each fill to ``BATCH_BYTES`` (see
``fill_bytes``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def backend_name() -> str:
    """The fill implementation, for benchmark host reports."""
    return "python"


# Cap on the bytes of one fill (``fill_bytes``): 2 MB, what one fill of
# a float64 table could take before fills kept only moves (1 MB of
# table plus up to 1 MB of cost).  Large enough that each numpy call of
# the sweep covers many cells, small enough to add little to peak memory
# however many lanes a caller asks for.
BATCH_BYTES = 1 << 21


def fill_bytes(n: int, m: int, lanes: int, matrices: int) -> int:
    """Bytes ``fill`` allocates for ``lanes`` lanes of padded shape
    ``(n, m)`` read from ``matrices`` (1 or ``lanes``) cost lanes: two
    one-byte moves per cell per lane, an 8-byte cost per cell per matrix,
    and five float64 rows of ``n + 1`` cells per lane (three diagonals
    and two of scratch)."""
    return (n + 1) * ((m + 1) * (2 * lanes + 8 * matrices) + 40 * lanes)


def _sweep(
    rows: Sequence[np.ndarray],
    moves: np.ndarray,
    cost: np.ndarray,
    gaps: np.ndarray,
    ends: dict[int, tuple[np.ndarray, np.ndarray]],
    scores: np.ndarray,
) -> None:
    # rows[d] is the (n+1, L) row of diagonal d, for d in 0..n+m; rows d,
    # d-1 and d-2 must not overlap.  moves is (2, (n+1)*(m+1), L) bool
    # (diagonal plane, then up plane), written at interior cells only;
    # cost is the mapped cost, ((n+1)*(m+1), 1 or L), read at interior
    # cells; gaps holds 1 or L penalties.  ends maps a diagonal to the
    # (cell row, lane) indices of the lanes whose last cell is on it,
    # whose values are copied into scores once it is filled.
    n, lanes = rows[0].shape[0] - 1, rows[0].shape[1]
    m = len(rows) - 1 - n
    take_diag, take_up = moves
    neg = -gaps
    scratch = np.empty((2, min(n, m), lanes))
    for d, row in enumerate(rows):
        # The outer cells (0, d) and (d, 0) hold -gap * d.
        first, last = (0 if d <= m else d), (d if d <= n else 0)
        if first <= last:
            np.multiply(neg, d, out=row[first : last + 1 : max(d, 1)])
        lo, hi = max(1, d - m), min(n, d - 1)
        if lo <= hi:
            prev, prev2 = rows[d - 1], rows[d - 2]
            cells = slice(lo * m + d, hi * m + d + 1, m)
            up, left = scratch[:, : hi - lo + 1]
            cell = row[lo : hi + 1]
            np.subtract(prev[lo - 1 : hi], gaps, out=up)
            np.subtract(prev[lo : hi + 1], gaps, out=left)
            np.greater_equal(up, left, out=take_up[cells])
            np.maximum(up, left, out=up)
            np.add(prev2[lo - 1 : hi], cost[cells], out=cell)
            np.greater_equal(cell, up, out=take_diag[cells])
            np.maximum(cell, up, out=cell)
        end = ends.get(d)
        if end is not None:
            scores[end[1]] = row[end]


def _fill(
    sims: Sequence[np.ndarray],
    mismatch: float,
    bonus: float,
    gaps: Sequence[float],
    table: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    # The sweep of ``fill``; with ``table``, a C-contiguous (n+1, m+1, L)
    # array, every diagonal is kept in it instead of in three rows.
    gaps = np.asarray(gaps, dtype=np.float64)
    (lanes,) = np.broadcast_shapes((len(sims),), gaps.shape)
    n = max(sim.shape[0] for sim in sims)
    m = max(sim.shape[1] for sim in sims)
    # The mapped cost, built in place (x + mismatch is the same IEEE sum
    # as mismatch + x) to add no full-size temporaries.
    cost = np.zeros((n + 1, m + 1, len(sims)))
    for k, sim in enumerate(sims):
        cost[1 : sim.shape[0] + 1, 1 : sim.shape[1] + 1, k] = sim
    np.multiply(cost, bonus - mismatch, out=cost)
    np.add(cost, mismatch, out=cost)
    if table is None:
        ring = np.empty((3, n + 1, lanes))
        rows = [ring[d % 3] for d in range(n + m + 1)]
    else:
        # Row d's cell i is table cell (i, d - i), at flat i*m + d.
        flat = table.reshape(-1, lanes)
        rows = [flat[d::m][: n + 1] for d in range(n + m + 1)]
    ends: dict[int, tuple[list[int], list[int]]] = {}
    for lane in range(lanes):
        rows_k, cols_k = sims[lane % len(sims)].shape
        end = ends.setdefault(rows_k + cols_k, ([], []))
        end[0].append(rows_k)
        end[1].append(lane)
    moves = np.empty((2, n + 1, m + 1, lanes), dtype=bool)
    scores = np.empty(lanes)
    _sweep(
        rows,
        moves.reshape(2, -1, lanes),
        cost.reshape(-1, len(sims)),
        gaps,
        {d: (np.array(i), np.array(lane)) for d, (i, lane) in ends.items()},
        scores,
    )
    return moves, scores


def fill(
    sims: Sequence[np.ndarray], mismatch: float, bonus: float, gaps: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Moves and final scores of K matrices for T gap penalties, in one sweep.

    K and T broadcast: they are equal, or one of them is 1, and lane
    ``l`` is the table of ``sims[l]`` (or the one matrix) for
    ``gaps[l]`` (or the one gap).  The matrices are zero-padded on the
    bottom and right to the largest shape ``(n, m)``.  Returns
    ``(moves, scores)``: ``moves`` is a C-contiguous bool
    ``(2, n+1, m+1, L)`` array whose ``[0]`` (diagonal) and ``[1]`` (up)
    planes hold lane ``l``'s moves at ``[1 : n_l + 1, 1 : m_l + 1, l]``
    (the outer row and column are left unset), and ``scores[l]`` is the
    value of lane ``l``'s cell ``(n_l, m_l)``, each bit-identical to
    filling the lane alone.  Callers bound the fill (see ``fill_bytes``);
    this function does not split it.
    """
    return _fill(sims, mismatch, bonus, gaps, None)


def fill_sequential(sim: np.ndarray, mismatch: float, bonus: float, gap: float) -> np.ndarray:
    """The ``(n+1, m+1)`` score table for one gap penalty: the sweep of
    ``fill`` with every diagonal kept."""
    table = np.empty((sim.shape[0] + 1, sim.shape[1] + 1, 1))
    _fill([sim], mismatch, bonus, [gap], table)
    return table[:, :, 0]


def fill_wavefront(
    sim: np.ndarray, mismatch: float, bonus: float, gap: float, workers: int
) -> np.ndarray:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return fill_sequential(sim, mismatch, bonus, gap)
