"""Pure-Python fill kernel, used when the compiled extension is absent.

Same recurrence and same arithmetic as the compiled kernel, evaluated
with numpy one anti-diagonal at a time: every cell of a diagonal reads
only the two previous diagonals, so a whole diagonal is one vector step.
"""

from __future__ import annotations

import numpy as np


def nw_fill(dp: np.ndarray, sim: np.ndarray, mismatch: float, bonus: float, gap: float) -> None:
    n, m = sim.shape
    for d in range(2, n + m + 1):
        i_values = np.arange(max(1, d - m), min(n, d - 1) + 1)
        j_values = d - i_values
        c = mismatch + sim[i_values - 1, j_values - 1] * (bonus - mismatch)
        dp[i_values, j_values] = np.maximum(
            dp[i_values - 1, j_values - 1] + c,
            np.maximum(dp[i_values - 1, j_values] - gap, dp[i_values, j_values - 1] - gap),
        )
