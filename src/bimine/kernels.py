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
basic slice ``[lo*m + d : hi*m + d + 1 : m]``.  Row ``d-1`` minus the
gap is taken once, over ``lo-1..hi``; its first and last ``hi-lo+1``
values are the up and left candidates.  A diagonal step is six ``out=``
ufunc calls on views over its interior cells (seven while it reaches
the outer row or column) -- no index arrays, no gathers, no copies.

A traceback only asks which candidate won at each cell, so ``fill``
keeps no table: the values live on three rolling diagonal rows, and
every interior cell of every lane records two one-byte moves,

    diag = dp[i-1, j-1] + c >= max(dp[i-1, j] - gap, dp[i, j-1] - gap)
    up   = dp[i-1, j] - gap >= dp[i, j-1] - gap

which hold exactly when the cell equals its diagonal candidate, and
(when it does not) its up candidate; ties resolve diagonal first, then
up, then left.  The sweep reads diagonal ``d`` from row ``d % R`` of
an ``(R, n+1, L)`` array: ``fill`` rolls over three rows, and
``fill_sequential`` keeps all ``n+m+1`` and reads its table off them.
Each lane is bit-identical to filling it alone, which the test
suite checks against a plain-loop oracle: no cell reads a cell below or
to the right of it, so a padded matrix's own ``(n_k+1, m_k+1)`` region
never sees the padding.  The mapped-cost table has one lane per matrix,
so one matrix filled for T gaps keeps it one lane wide.

``align.kept_cells`` bounds each fill to ``BATCH_BYTES`` (see
``fill_bytes``).
"""

from __future__ import annotations

from itertools import chain
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

# Cells of the buffer numpy takes for a ufunc call that broadcasts, as
# the sweep's calls over a diagonal do (``np.getbufsize()``).
UFUNC_BUFFER_CELLS = np.getbufsize()


def fill_bytes(n: int, m: int, lanes: int, matrices: int) -> int:
    """Bytes ``fill`` allocates for ``lanes`` lanes of padded shape
    ``(n, m)`` read from ``matrices`` (1 or ``lanes``) cost lanes: two
    one-byte moves per cell per lane, an 8-byte cost per cell per matrix,
    five float64 rows of ``n + 1`` cells per lane (three diagonals and
    two of scratch), 48 bytes per lane of gaps, scores and end cells, and
    the buffer numpy takes for a broadcasting ufunc call over a diagonal
    (8 bytes per cell, up to ``UFUNC_BUFFER_CELLS``)."""
    buffer = 8 * min(UFUNC_BUFFER_CELLS, (min(n, m) + 1) * lanes)
    return (n + 1) * ((m + 1) * (2 * lanes + 8 * matrices) + 40 * lanes) + 48 * lanes + buffer


def _sweep(
    rows: np.ndarray,
    moves: np.ndarray,
    cost: np.ndarray,
    gaps: np.ndarray,
    ends: dict[int, np.ndarray],
    end_rows: np.ndarray,
    scores: np.ndarray,
) -> None:
    # rows is (R, n+1, L), R >= 3; diagonal d, for d in 0..n+m, is held
    # in rows[d % R], indexed by i.  moves is (2, (n+1)*(m+1), L)
    # bool (diagonal plane, then up plane), written at interior cells
    # only; cost is the mapped cost, ((n+1)*(m+1), 1 or L), read at
    # interior cells; gaps holds 1 or L penalties.  ends maps a diagonal
    # to the lanes whose last cell is on it, in row end_rows[lane]; their
    # values are copied into scores once it is filled.
    prev = prev2 = rows[0]
    kept, n, lanes = rows.shape[0], rows.shape[1] - 1, rows.shape[2]
    m = moves.shape[1] // (n + 1) - 1
    take_diag, take_up = moves
    neg = -gaps
    gapped = np.empty((min(n, m) + 1, lanes))
    best = np.empty((min(n, m), lanes))
    for d in range(n + m + 1):
        cur = rows[d % kept]
        # The outer cells (0, d) and (d, 0) hold -gap * d.
        first, last = (0 if d <= m else d), (d if d <= n else 0)
        if first <= last:
            np.multiply(neg, d, out=cur[first : last + 1 : max(d, 1)])
        lo, hi = max(1, d - m), min(n, d - 1)
        if lo <= hi:
            # Cells lo..hi read row d-1 at lo-1..hi minus the gap: its
            # first hi-lo+1 values are their up candidates, its last
            # hi-lo+1 their left candidates.
            cells = slice(lo * m + d, hi * m + d + 1, m)
            width = hi - lo + 1
            np.subtract(prev[lo - 1 : hi + 1], gaps, out=gapped[: width + 1])
            up, left, gap_best = gapped[:width], gapped[1 : width + 1], best[:width]
            cell = cur[lo : hi + 1]
            np.greater_equal(up, left, out=take_up[cells])
            np.maximum(up, left, out=gap_best)
            np.add(prev2[lo - 1 : hi], cost[cells], out=cell)
            np.greater_equal(cell, gap_best, out=take_diag[cells])
            np.maximum(cell, gap_best, out=cell)
        ending = ends.get(d)
        if ending is not None:
            scores[ending] = cur[end_rows[ending], ending]
        prev2, prev = prev, cur


def _fill(
    sims: Sequence[np.ndarray],
    mismatch: float,
    bonus: float,
    gaps: Sequence[float],
    kept: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The sweep of ``fill``, holding its diagonals on ``kept`` rows;
    # returns the moves, the scores and the rows.
    gaps = np.asarray(gaps, dtype=np.float64)
    (lanes,) = np.broadcast_shapes((len(sims),), gaps.shape)
    # One shape tuple at a time: a list of them would park each in
    # CPython's tuple free list.
    shapes = np.fromiter(chain.from_iterable(sim.shape for sim in sims), np.intp, 2 * len(sims))
    shapes = np.broadcast_to(shapes.reshape(-1, 2), (lanes, 2))
    n, m = shapes.max(axis=0).tolist()
    ends = _ends(shapes)
    # The mapped cost, built in place (x + mismatch is the same IEEE sum
    # as mismatch + x) to add no full-size temporaries.
    cost = np.zeros((n + 1, m + 1, len(sims)))
    for k, sim in enumerate(sims):
        cost[1 : sim.shape[0] + 1, 1 : sim.shape[1] + 1, k] = sim
    np.multiply(cost, bonus - mismatch, out=cost)
    np.add(cost, mismatch, out=cost)
    rows = np.empty((kept, n + 1, lanes))
    moves = np.empty((2, n + 1, m + 1, lanes), dtype=bool)
    scores = np.empty(lanes)
    _sweep(
        rows,
        moves.reshape(2, -1, lanes),
        cost.reshape(-1, len(sims)),
        gaps,
        ends,
        shapes[:, 0],
        scores,
    )
    return moves, scores, rows


def _ends(shapes: np.ndarray) -> dict[int, np.ndarray]:
    """The lanes whose last cell ``(n_l, m_l)`` is on diagonal ``d``, for
    each ``d`` that has one, given each lane's shape."""
    last = shapes.sum(axis=1)
    order = np.argsort(last, kind="stable")
    diagonals, starts = np.unique(last[order], return_index=True)
    stops = [*starts[1:].tolist(), len(order)]
    return {d: order[a:b] for d, a, b in zip(diagonals.tolist(), starts.tolist(), stops)}


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
    moves, scores, _ = _fill(sims, mismatch, bonus, gaps, 3)
    return moves, scores


def fill_sequential(sim: np.ndarray, mismatch: float, bonus: float, gap: float) -> np.ndarray:
    """The ``(n+1, m+1)`` score table for one gap penalty: the sweep of
    ``fill`` with every diagonal kept."""
    n, m = sim.shape
    _, _, rows = _fill([sim], mismatch, bonus, [gap], n + m + 1)
    i, j = np.indices((n + 1, m + 1))
    return rows[i + j, i, 0]


def fill_wavefront(
    sim: np.ndarray, mismatch: float, bonus: float, gap: float, workers: int
) -> np.ndarray:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return fill_sequential(sim, mismatch, bonus, gap)
