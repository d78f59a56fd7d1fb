"""Selection between the compiled fill kernel and the Python fallback.

The compiled extension is preferred when it imports; setting the
environment variable ``BIMINE_PURE_PYTHON=1`` before import forces the
fallback.  Both backends expose the same ``nw_fill`` and produce
bit-identical tables, which the test suite checks against a plain-loop
oracle.
"""

from __future__ import annotations

import os

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


def _init_table(sim: np.ndarray, gap: float) -> np.ndarray:
    n, m = sim.shape
    dp = np.empty((n + 1, m + 1), dtype=np.float64)
    # Shared boundary initialization keeps every backend bit-identical.
    dp[0, :] = -gap * np.arange(m + 1, dtype=np.float64)
    dp[1:, 0] = -gap * np.arange(1, n + 1, dtype=np.float64)
    return dp


def fill_sequential(
    sim: np.ndarray, mismatch: float, bonus: float, gap: float, backend: str | None = None
) -> np.ndarray:
    impl = _BACKENDS[backend] if backend else _impl
    sim = np.ascontiguousarray(sim, dtype=np.float64)
    dp = _init_table(sim, gap)
    impl.nw_fill(dp, sim, mismatch, bonus, gap)
    return dp


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
