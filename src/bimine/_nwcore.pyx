# cython: boundscheck=False, wraparound=False, initializedcheck=False
"""Compiled fill kernel for the alignment score table.

The kernel evaluates the recurrence

    dp[i, j] = max(dp[i-1, j-1] + c, dp[i-1, j] - gap, dp[i, j-1] - gap)
    c        = mismatch + sim[i-1, j-1] * (bonus - mismatch)

row by row over a table whose first row and column the caller has
initialized, with the same arithmetic as the numpy fallback, so both
backends produce bit-identical tables.
"""


def nw_fill(double[:, ::1] dp, const double[:, ::1] sim,
            double mismatch, double bonus, double gap):
    cdef Py_ssize_t n = sim.shape[0]
    cdef Py_ssize_t m = sim.shape[1]
    cdef Py_ssize_t i, j
    cdef double c, best, cand
    with nogil:
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                c = mismatch + sim[i - 1, j - 1] * (bonus - mismatch)
                best = dp[i - 1, j - 1] + c
                cand = dp[i - 1, j] - gap
                if cand > best:
                    best = cand
                cand = dp[i, j - 1] - gap
                if cand > best:
                    best = cand
                dp[i, j] = best
