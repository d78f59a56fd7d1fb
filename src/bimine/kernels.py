"""The fill of the alignment score table.

The table of one similarity matrix is filled for several gap penalties
at once, as one C-contiguous ``(n+1, m+1, T)`` array with the trial axis
last.  Every cell gets

    dp[i, j] = max(dp[i-1, j-1] + c, max(dp[i-1, j] - gap, dp[i, j-1] - gap))
    c        = mismatch + sim[i-1, j-1] * (bonus - mismatch)

evaluated with numpy one anti-diagonal at a time: every cell of a
diagonal reads only the two previous diagonals, so a whole diagonal is
one vector step.  Flattened to ``((n+1)*(m+1), T)``, cell ``(i, j)``
sits at row ``i*(m+1) + j``, so the cells of anti-diagonal ``d = i + j``
with ``lo <= i <= hi`` are the basic slice ``[lo*m + d : hi*m + d + 1 : m]``
and their up, left and diagonal neighbours are that slice shifted by
``-(m+1)``, ``-1`` and ``-(m+2)``.  A diagonal step is therefore five
``out=`` ufunc calls on strided views -- no index arrays, no gathers,
no copies -- over ``k x T`` cells at once.  Each table is bit-identical
to filling its gap alone, which the test suite checks against a
plain-loop oracle.

``fill_batch`` is the one fill entry point; ``fill_sequential`` is its
one-gap case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def backend_name() -> str:
    """The fill implementation, for benchmark host reports."""
    return "python"


# Cap on the cells of one batched table, all trials together: 1 MB of
# float64.  Large enough that each numpy call of the sweep covers many
# cells, small enough to add little to peak memory however many trials
# a caller asks for.
BATCH_CELLS = 1 << 17


def _sweep(
    dp: np.ndarray, sim: np.ndarray, mismatch: float, bonus: float, gaps: np.ndarray
) -> None:
    # Fills dp[1:, 1:, t] for every gaps[t] in place; dp is C-contiguous
    # with its first row and column already initialized.
    n, m = sim.shape
    flat = dp.reshape(-1, dp.shape[2])  # a view: writes land in dp
    # The mapped cost, padded to the table's shape so that the diagonal
    # slices address it too; built in place (x + mismatch is the same
    # IEEE sum as mismatch + x) to add no full-size temporaries.
    cost = np.zeros((n + 1, m + 1))
    np.multiply(sim, bonus - mismatch, out=cost[1:, 1:])
    np.add(cost[1:, 1:], mismatch, out=cost[1:, 1:])
    cost = cost.reshape(-1, 1)
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


def fill_batch(
    sim: np.ndarray, mismatch: float, bonus: float, gaps: Sequence[float]
) -> np.ndarray:
    """Score tables of one matrix for several gap penalties at once.

    Returns a C-contiguous ``(n+1, m+1, T)`` array whose ``[:, :, t]``
    slice is the table for ``gaps[t]``, bit-identical to filling that
    gap alone.  Callers bound T (see ``BATCH_CELLS``); this function
    does not split the batch.
    """
    sim = np.ascontiguousarray(sim, dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)
    n, m = sim.shape
    dp = np.empty((n + 1, m + 1, len(gaps)), dtype=np.float64)
    dp[0, :, :] = -gaps * np.arange(m + 1, dtype=np.float64)[:, None]
    dp[1:, 0, :] = -gaps * np.arange(1, n + 1, dtype=np.float64)[:, None]
    _sweep(dp, sim, mismatch, bonus, gaps)
    return dp


def fill_sequential(sim: np.ndarray, mismatch: float, bonus: float, gap: float) -> np.ndarray:
    """The ``(n+1, m+1)`` score table for one gap penalty."""
    return fill_batch(sim, mismatch, bonus, [gap])[:, :, 0]


def fill_wavefront(
    sim: np.ndarray, mismatch: float, bonus: float, gap: float, workers: int
) -> np.ndarray:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return fill_sequential(sim, mismatch, bonus, gap)
