"""The fill of the alignment score table.

One function, ``fill``, fills many tables at once, as one C-contiguous
``(n+1, m+1, L)`` array.  Its lanes broadcast as numpy's do: K
similarity matrices with one gap penalty (a block of mined document
pairs), one matrix with T gap penalties (the trials of tuning), or K of
each.  The matrices are zero-padded on the bottom and right to one
shape.  Every cell gets

    dp[i, j] = max(dp[i-1, j-1] + c, max(dp[i-1, j] - gap, dp[i, j-1] - gap))
    c        = mismatch + sim[i-1, j-1] * (bonus - mismatch)

evaluated with numpy one anti-diagonal at a time: every cell of a
diagonal reads only the two previous diagonals, so a whole diagonal is
one vector step.  Flattened to ``((n+1)*(m+1), L)``, cell ``(i, j)``
sits at row ``i*(m+1) + j``, so the cells of anti-diagonal ``d = i + j``
with ``lo <= i <= hi`` are the basic slice ``[lo*m + d : hi*m + d + 1 : m]``
and their up, left and diagonal neighbours are that slice shifted by
``-(m+1)``, ``-1`` and ``-(m+2)``.  A diagonal step is therefore five
``out=`` ufunc calls on strided views -- no index arrays, no gathers,
no copies -- over ``k x L`` cells at once.  The mapped-cost table has
one lane per matrix, so one matrix filled for T gaps keeps it one lane
wide.  Each table is bit-identical to filling it alone, which the test
suite checks against a plain-loop oracle: no cell reads a cell below or
to the right of it, so a padded matrix's own ``(n_k+1, m_k+1)`` region
never sees the padding.

``align.kept_cells`` bounds each fill to ``BATCH_CELLS``;
``fill_sequential`` is the one-lane case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def backend_name() -> str:
    """The fill implementation, for benchmark host reports."""
    return "python"


# Cap on the cells of one padded table, all lanes together: 1 MB of
# float64.  Large enough that each numpy call of the sweep covers many
# cells, small enough to add little to peak memory however many lanes
# a caller asks for.
BATCH_CELLS = 1 << 17


def _sweep(dp: np.ndarray, cost: np.ndarray, gaps: np.ndarray) -> None:
    # Fills dp[1:, 1:, :] in place.  dp is C-contiguous (n+1, m+1, L) with
    # its first row and column already initialized; cost is the mapped
    # cost, C-contiguous (n+1, m+1, 1 or L) and read at [1:, 1:]; gaps
    # holds 1 or L penalties.  Shapes broadcast along the last axis.
    n, m = dp.shape[0] - 1, dp.shape[1] - 1
    flat = dp.reshape(-1, dp.shape[2])  # a view: writes land in dp
    cost = cost.reshape(-1, cost.shape[2])
    scratch = np.empty((min(n, m), dp.shape[2]))
    up, diag = m + 1, m + 2
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        start, stop = lo * m + d, hi * m + d + 1
        cell = flat[start:stop:m]
        tmp = scratch[: hi - lo + 1]
        np.subtract(flat[start - up : stop - up : m], gaps, out=cell)
        np.subtract(flat[start - 1 : stop - 1 : m], gaps, out=tmp)
        np.maximum(cell, tmp, out=cell)
        np.add(flat[start - diag : stop - diag : m], cost[start:stop:m], out=tmp)
        np.maximum(tmp, cell, out=cell)


def fill(
    sims: Sequence[np.ndarray], mismatch: float, bonus: float, gaps: Sequence[float]
) -> np.ndarray:
    """Score tables of K matrices for T gap penalties, in one sweep.

    K and T broadcast: they are equal, or one of them is 1, and lane
    ``l`` is the table of ``sims[l]`` (or the one matrix) for
    ``gaps[l]`` (or the one gap).  The matrices are zero-padded on the
    bottom and right to the largest shape ``(n, m)``.  Returns a
    C-contiguous ``(n+1, m+1, L)`` array whose ``[: n_l + 1, : m_l + 1, l]``
    region is lane ``l``'s table, bit-identical to filling it alone.
    Callers bound the table (see ``BATCH_CELLS``); this function does
    not split it.
    """
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
    dp = np.empty((n + 1, m + 1, lanes), dtype=np.float64)
    dp[0, :, :] = -gaps * np.arange(m + 1, dtype=np.float64)[:, None]
    dp[1:, 0, :] = -gaps * np.arange(1, n + 1, dtype=np.float64)[:, None]
    _sweep(dp, cost, gaps)
    return dp


def fill_sequential(sim: np.ndarray, mismatch: float, bonus: float, gap: float) -> np.ndarray:
    """The ``(n+1, m+1)`` score table for one gap penalty."""
    return fill([sim], mismatch, bonus, [gap])[:, :, 0]


def fill_wavefront(
    sim: np.ndarray, mismatch: float, bonus: float, gap: float, workers: int
) -> np.ndarray:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return fill_sequential(sim, mismatch, bonus, gap)
