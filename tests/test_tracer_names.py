"""The names the benchmark looks up in the package still resolve.

``perfbench/tracing.py`` wraps every ``(module, function)`` of its
``TARGETS`` by ``getattr``, and ``perfbench/run.py`` reports
``kernels.backend_name()``.  Removing one of those names breaks traced
benchmark runs, which these tests catch without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

from bimine import kernels

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """``perfbench/tracing.py`` as a module; importing it installs nothing."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = [
        f"bimine.{module}.{name}"
        for module, name, _, _ in targets
        if not callable(getattr(importlib.import_module(f"bimine.{module}"), name, None))
    ]
    assert missing == []


def test_backend_name_resolves():
    assert isinstance(kernels.backend_name(), str)
