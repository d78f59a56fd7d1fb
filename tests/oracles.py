"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: exhaustive enumeration instead
of dynamic programming, dict-based EM written from the update equations.
These stay separate from the package so each check has two routes.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def brute_force_best_score(
    sim: np.ndarray, match_bonus: float, mismatch_cost: float, gap_penalty: float
) -> float:
    """Best monotone alignment score by enumerating every path."""
    n, m = sim.shape
    best = [-np.inf]

    def walk(i: int, j: int, score: float) -> None:
        if i == n and j == m:
            if score > best[0]:
                best[0] = score
            return
        if i < n and j < m:
            cell = mismatch_cost + sim[i, j] * (match_bonus - mismatch_cost)
            walk(i + 1, j + 1, score + cell)
        if i < n:
            walk(i + 1, j, score - gap_penalty)
        if j < m:
            walk(i, j + 1, score - gap_penalty)

    walk(0, 0, 0.0)
    return best[0]


def reference_dp_table(
    sim: np.ndarray, mismatch_cost: float, match_bonus: float, gap_penalty: float
) -> np.ndarray:
    """Plain-loop fill of the score table (no vectorization).

    Works on Python lists of floats: the arithmetic is the same IEEE
    double arithmetic as numpy's, at a fraction of numpy's per-element
    indexing cost.
    """
    n, m = sim.shape
    cells = sim.tolist()
    dp = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = -gap_penalty * i
    for j in range(1, m + 1):
        dp[0][j] = -gap_penalty * j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cell = mismatch_cost + cells[i - 1][j - 1] * (match_bonus - mismatch_cost)
            dp[i][j] = max(
                dp[i - 1][j - 1] + cell, dp[i - 1][j] - gap_penalty, dp[i][j - 1] - gap_penalty
            )
    return np.array(dp)


def longest_common_subsequence(first: list, second: list) -> int:
    """Length of the longest common subsequence, by the textbook table."""
    table = [[0] * (len(second) + 1) for _ in range(len(first) + 1)]
    for i, a in enumerate(first, 1):
        for j, b in enumerate(second, 1):
            if a == b:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def em_translation_oracle(
    pairs: list[tuple[list[str], list[str]]], iterations: int
) -> dict[str, dict[str, float]]:
    """Expectation-maximization word-translation estimation.

    Uniform start over each source token's co-occurring targets; each
    iteration distributes one unit of alignment mass per source token
    occurrence over the paired sentence's tokens, then renormalizes.
    """
    support: dict[str, set[str]] = defaultdict(set)
    for source_tokens, target_tokens in pairs:
        for s in source_tokens:
            support[s].update(target_tokens)
    prob = {s: {t: 1.0 / len(ts) for t in ts} for s, ts in support.items()}
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {s: defaultdict(float) for s in prob}
        for source_tokens, target_tokens in pairs:
            for s in source_tokens:
                z = sum(prob[s][t] for t in target_tokens)
                if z == 0.0:
                    continue
                for t in target_tokens:
                    counts[s][t] += prob[s][t] / z
        for s, row in counts.items():
            total = sum(row.values())
            if total > 0.0:
                prob[s] = {t: c / total for t, c in row.items()}
    return prob
