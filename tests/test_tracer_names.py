"""The names the benchmark looks up in the package still resolve.

``perfbench/tracing.py`` wraps every ``(module, function)`` of its
``TARGETS`` by ``getattr``, and ``perfbench/run.py`` reports
``kernels.backend_name()``.  The benchmark's files also import names
from the package, such as ``cli.main`` and ``corpus.save_corpus``, and
``tracing.py`` imports every module of its ``MODULES``.  Removing one of
those names breaks benchmark runs, which these tests catch without
running the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from bimine import kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _imported_module(node) -> str | None:
    """The module of an ``importlib.import_module("bimine...")`` call."""
    if (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "import_module"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).split(".")[0] == "bimine"
    ):
        return node.args[0].value
    return None


def benchmark_names() -> set[tuple[str, str, str | None]]:
    """Every package name that the benchmark's files name in code, as
    ``(file, module, attribute or None for the module itself)``: each
    name of a ``from bimine... import``, the modules of a ``MODULES``
    tuple and each attribute read off an ``import_module("bimine...")``
    call."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bimine":
                names |= {(path.name, node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "MODULES" for target in node.targets
            ):
                names |= {(path.name, f"bimine.{m}", None) for m in ast.literal_eval(node.value)}
            elif isinstance(node, ast.Attribute) and _imported_module(node.value):
                names.add((path.name, _imported_module(node.value), node.attr))
    return names


def _resolves(module: str, name: str | None) -> bool:
    # As ``from module import name`` does: an attribute, else a submodule.
    try:
        imported = importlib.import_module(module)
        if name is None or hasattr(imported, name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_benchmark_import_resolves():
    names = benchmark_names()
    # The scan finds what the benchmark drives: the command line, the
    # corpus files of its set-up and checks, the traced modules and the
    # tokenizer its counts use.
    assert {
        ("workloads.py", "bimine.cli", "main"),
        ("workloads.py", "bimine.corpus", "load_corpus"),
        ("workloads.py", "bimine.corpus", "save_corpus"),
        ("workloads.py", "bimine.corpus", "Document"),
        ("workloads.py", "bimine.corpus", "DocumentPair"),
        ("tracing.py", "bimine.align", None),
        ("tracing.py", "bimine.text", "tokenize"),
        ("run.py", "bimine", "kernels"),
    } <= names
    missing = sorted(
        f"{file}: {module}" + (f".{name}" if name else "")
        for file, module, name in names
        if not _resolves(module, name)
    )
    assert missing == []
