"""Selection between the compiled fill kernel and the Python fallback.

The compiled extension is preferred when it imports; setting the
environment variable ``BIMINE_PURE_PYTHON=1`` before import forces the
fallback.  ``fill_batch`` is the one fill entry point: it fills the
tables of one similarity matrix for several gap penalties, as one
``(n+1, m+1, T)`` array with the trial axis last.  The numpy fallback
sweeps all T tables at once (see ``_nw_py``); the compiled 2-D kernel
fills one gap at a time.  ``fill_sequential`` is the one-gap case.
Both backends produce bit-identical tables, which the test suite checks
against a plain-loop oracle.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

from . import _nw_py

if os.environ.get("BIMINE_PURE_PYTHON"):
    _impl = _nw_py
    BACKEND = "python"
else:
    try:
        from . import _nwcore as _impl  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        _impl = _nw_py
        BACKEND = "python"

_BACKENDS = {"python": _nw_py}
if BACKEND == "compiled":
    _BACKENDS["compiled"] = _impl


def backend_name() -> str:
    return BACKEND


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


# Cap on the cells of one batched table, all trials together: 1 MB of
# float64.  Large enough that each numpy call of the sweep covers many
# cells, small enough to add little to peak memory however many trials
# a caller asks for.
BATCH_CELLS = 1 << 17


def _init_table(sim: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    n, m = sim.shape
    dp = np.empty((n + 1, m + 1, len(gaps)), dtype=np.float64)
    # Shared boundary initialization keeps every backend bit-identical.
    dp[0, :, :] = -gaps * np.arange(m + 1, dtype=np.float64)[:, None]
    dp[1:, 0, :] = -gaps * np.arange(1, n + 1, dtype=np.float64)[:, None]
    return dp


def fill_batch(
    sim: np.ndarray,
    mismatch: float,
    bonus: float,
    gaps: Sequence[float],
    backend: str | None = None,
) -> np.ndarray:
    """Score tables of one matrix for several gap penalties at once.

    Returns a C-contiguous ``(n+1, m+1, T)`` array whose ``[:, :, t]``
    slice is the table for ``gaps[t]``, bit-identical to filling that
    gap alone.  The numpy backend sweeps all T tables in one pass; the
    compiled kernel fills one gap at a time.  Callers bound T (see
    ``BATCH_CELLS``); this function does not split the batch.
    """
    impl = _BACKENDS[backend] if backend else _impl
    sim = np.ascontiguousarray(sim, dtype=np.float64)
    gaps = np.asarray(gaps, dtype=np.float64)
    dp = _init_table(sim, gaps)
    if impl is _nw_py:
        _nw_py.nw_fill(dp, sim, mismatch, bonus, gaps)
        return dp
    for t, gap in enumerate(gaps.tolist()):
        table = np.ascontiguousarray(dp[:, :, t])
        impl.nw_fill(table, sim, mismatch, bonus, gap)
        dp[:, :, t] = table
    return dp


def fill_sequential(
    sim: np.ndarray, mismatch: float, bonus: float, gap: float, backend: str | None = None
) -> np.ndarray:
    """The ``(n+1, m+1)`` score table for one gap penalty."""
    return fill_batch(sim, mismatch, bonus, [gap], backend)[:, :, 0]


def fill_wavefront(
    sim: np.ndarray,
    mismatch: float,
    bonus: float,
    gap: float,
    workers: int,
    backend: str | None = None,
) -> np.ndarray:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return fill_sequential(sim, mismatch, bonus, gap, backend)
