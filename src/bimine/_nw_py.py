"""Pure-Python fill kernel, used when the compiled extension is absent.

Same recurrence and same arithmetic as the compiled kernel, evaluated
with numpy one anti-diagonal at a time: every cell of a diagonal reads
only the two previous diagonals, so a whole diagonal is one vector step.

The table holds T independent problems that differ only in the gap
penalty: a C-contiguous ``(n+1, m+1, T)`` array with the trial axis
last.  Flattened to ``((n+1)*(m+1), T)``, cell ``(i, j)`` sits at row
``i*(m+1) + j``, so the cells of anti-diagonal ``d = i + j`` with
``lo <= i <= hi`` are the basic slice ``[lo*m + d : hi*m + d + 1 : m]``
and their up, left and diagonal neighbours are that slice shifted by
``-(m+1)``, ``-1`` and ``-(m+2)``.  A diagonal step is therefore five
``out=`` ufunc calls on strided views -- no index arrays, no gathers,
no copies -- over ``k x T`` cells at once.
"""

from __future__ import annotations

import numpy as np


def nw_fill(
    dp: np.ndarray, sim: np.ndarray, mismatch: float, bonus: float, gaps: np.ndarray
) -> None:
    """Fill ``dp[1:, 1:, t]`` for every gap penalty ``gaps[t]`` in place.

    ``dp`` must be C-contiguous with its first row and column already
    initialized.  Each cell gets ``max(diag + c, max(up - gap, left - gap))``
    with ``c = mismatch + sim * (bonus - mismatch)``, the operations and
    operand order of the compiled kernel, so tables are bit-identical.
    """
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
