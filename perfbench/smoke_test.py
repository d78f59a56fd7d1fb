"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py        or        python3 -m pytest perfbench

Runs every workload untraced and traced, with every output check, and
compares the metric names and units it prints with BENCHMARK.json, so a
broken generator, a failing check or a renamed metric shows in about a
minute.  It also runs the benchmark in a directory without the program,
where it must fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    sys.path.insert(0, HERE)
    import workloads

    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    for workload in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = _bench(ROOT, workload["name"], trace)
            assert run.returncode == 0, run.stderr
            lines = run.stdout.splitlines()
            result = json.loads(lines[-1])
            assert result["correct"], [line for line in lines if line.startswith("check failed")]
            assert result["attempted"] >= 1 and result["failed"] == 0
            expected = {metric["name"]: metric["unit"] for metric in bench[kind]}
            assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_work", f"smoke-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        run = _bench(bare, "mine-long-docs", 0)
        assert run.returncode != 0
        assert '"metrics"' not in run.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_workload_and_metric()
    test_fails_without_the_program()
    print("smoke test passed")
