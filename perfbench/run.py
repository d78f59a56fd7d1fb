"""End-to-end and per-layer benchmark for bimine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a checkout,
importing the package from ``src/``.  Set-up generates the inputs from
the seed, three times, and reports the median time.  The timed job then
repeats for ``--seconds``; each repetition runs in a forked child, so
that its CPU time and peak memory are its own, and is checked: outputs
must hash the same on every repetition and reach the quality floors.
Job times are the fastest repetition's, peak memory is the median.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics.  With ``--trace 1`` repetitions alternate
between untraced and traced, and the JSON holds the per-layer metrics
of the traced ones plus the tracing overhead.  Every metric, the host
block and the checks are also printed above it, and written with the
spans of one traced repetition to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
RUN_LIMIT_S = 165.0  # a repetition still running this long after start is killed

# Reported in the final JSON line; BENCHMARK.json lists the same names.
END_TO_END = {"setup_s": "s", "job_s": "s", "job_cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    "unattributed_s": "s",
    "align.score_s": "s",
    "align.us_per_cell": "us",
    "align.cells_scored": "count",
    "kernels.fill_s": "s",
    "kernels.dp_cells": "count",
    "kernels.ns_per_dp_cell": "ns",
    "align.traceback_self_s": "s",
    "align.filter_s": "s",
    "align.matches": "count",
    "align.emitted": "count",
    "align.emit_ratio": "ratio",
    "tuning.realignments": "count",
    "lexicon.cooccurrence_pairs": "count",
    "lexicon.entries": "count",
    "classifier.features_extracted": "count",
    "text.sentences": "count",
    "corpus.load_s": "s",
    "corpus.bytes_read": "bytes",
    "corpus.bytes_written": "bytes",
    "manifest.digest_s": "s",
    "text.busy_s": "s",
    "text.self_s": "s",
    "corpus.busy_s": "s",
    "corpus.self_s": "s",
    "lexicon.busy_s": "s",
    "lexicon.self_s": "s",
    "classifier.busy_s": "s",
    "classifier.self_s": "s",
    "align.busy_s": "s",
    "align.self_s": "s",
    "kernels.busy_s": "s",
    "kernels.self_s": "s",
    "manifest.busy_s": "s",
    "manifest.self_s": "s",
}
# The end-to-end figures a user reads, printed for every workload ("n/a"
# where a workload has none).  Only END_TO_END is in the JSON line: the
# others exist in one or two workloads, or read 0 on clean input.
ALL_END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "job_cpu_s": "s",
    "doc_pairs_per_s": "1/s",
    "cells_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_pair_ratio": "ratio",
    "mined_precision": "ratio",
    "mined_recall": "ratio",
    "tuned_agreement_pct": "%",
}
# Printed and written out, but not in the JSON line: each is absent, so
# always zero, in at least one workload's timed job.
WORKLOAD_SPECIFIC = {
    "align.pair_ms.p50": "ms",
    "align.pair_ms.p90": "ms",
    "align.fanout_efficiency": "ratio",
    "tuning.agreement_s": "s",
    "tuning.busy_s": "s",
    "tuning.self_s": "s",
    "lexicon.build_s": "s",
    "classifier.train_s": "s",
    "corpus.ingest_s": "s",
    "corpus.save_s": "s",
    "corpus.write_bitext_s": "s",
    "split.score_share": "ratio",
    "split.fill_agreement_share": "ratio",
    "split.lexicon_text_corpus_share": "ratio",
}


def host_block(kernels) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "backend": kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def _files_digest(directory: str) -> dict[str, str]:
    # Run manifests carry wall times, so they are left out.
    from workloads import digest

    found = {}
    for base, _, files in os.walk(directory):
        for name in files:
            if not name.endswith("manifest.json"):
                path = os.path.join(base, name)
                found[os.path.relpath(path, directory)] = digest(path)
    return found


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _setup(workload, seed: int, setup_dir: str):
    """Body of one forked set-up: its time, the inputs and their digests."""
    start = time.perf_counter()
    inputs = workload.setup(seed, setup_dir)
    return time.perf_counter() - start, inputs, _files_digest(setup_dir)


def _repetition(workload, inputs, rep_dir: str, traced: bool, first: bool) -> dict:
    """Body of one forked repetition: run the job, measure it, check it."""
    import tracing
    from workloads import digest

    os.makedirs(rep_dir)
    tracer = None
    if traced:
        tracer = tracing.Tracer(os.path.join(rep_dir, "trace"))
        os.makedirs(tracer.worker_dir)
        tracer.install()
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    job = workload.job(inputs, rep_dir)
    job_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    quality, problems = workload.check(inputs, job, first)
    result = {
        "traced": traced,
        "job_s": job_s,
        "job_cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(children1) - _cpu_s(children0),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (self1.ru_maxrss + children1.ru_maxrss) / 1024.0,
        "mine_s": job.get("mine_s"),
        "failed": job["failed"],
        "digests": {role: digest(path) for role, path in job["outputs"].items()},
        "quality": quality,
        "problems": problems,
        "job": job,
    }
    if tracer is not None:
        spans, counts = tracer.finish()
        result["layers"] = tracing.summarize(spans, counts, job_s, workload.workers)
        result["spans"] = spans
    return result


def forked(body, result_path: str, deadline: float):
    """Run ``body()`` in a forked child and return ``(value, error)``.

    The child has its own process group, which its pool workers share,
    and pickles the value of ``body`` to ``result_path``.  Set-up and
    every repetition run this way, so that each starts from the same
    lean parent and its CPU time and peak memory are its own.  A child
    still running at ``deadline`` (``time.monotonic``), or when the
    parent is interrupted, is killed with its workers and waited for.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.setpgid(0, 0)
            value = body()
            with open(result_path, "wb") as handle:
                pickle.dump(value, handle)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    try:
        os.setpgid(pid, pid)  # also here, so that a kill cannot race the child's own call
    except OSError:
        pass
    done = 0
    try:
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                return None, f"killed after {RUN_LIMIT_S:.0f} s of the run"
            time.sleep(0.02)
    finally:
        if not done:
            os.killpg(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return None, f"child exited with status {code}"
    with open(result_path, "rb") as handle:
        return pickle.load(handle), None


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def best_of(results: list[dict], key: str) -> float:
    # Other tenants of a shared host only add time.  On a shared 2-vCPU
    # host they slowed this code by 25-35% in phases lasting tens of
    # seconds, which moved the median of a run's repetitions by as much
    # as whole runs differ; the fastest repetition varied far less.
    return min(r[key] for r in results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from bimine import kernels
    except ImportError as exc:
        print(f"cannot import bimine from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.scale)
    host = host_block(kernels)
    for key, value in host.items():
        print(f"host.{key} = {value}")

    work_root = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_root)
    # On SIGTERM, unwind so that ``forked`` kills its child and the work
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _run(args, workload, host, work_root, time.monotonic() + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def _run(args, workload, host: dict, work_root: str, deadline: float) -> int:
    problems: list[str] = []
    setup_times = []
    for k in range(SETUP_REPEATS):
        setup_dir = os.path.join(work_root, f"setup{k}")
        value, error = forked(lambda: _setup(workload, args.seed, setup_dir),
                              setup_dir + ".pickle", deadline)
        if error:
            print(f"set-up failed: {error}", file=sys.stderr)
            return 1
        elapsed, made, digests = value
        setup_times.append(elapsed)
        if k == 0:
            inputs, first_digests = made, digests
        else:
            shutil.rmtree(setup_dir)
            if digests != first_digests:
                problems.append("set-up made different inputs from the same seed")

    results: list[dict] = []
    start = time.perf_counter()
    while True:
        traced_rep = bool(args.trace) and len(results) % 2 == 1
        rep_dir = os.path.join(work_root, f"rep{len(results)}")
        value, error = forked(lambda: _repetition(workload, inputs, rep_dir, traced_rep, not results),
                              rep_dir + ".pickle", deadline)
        results.append(value if error is None else {"traced": traced_rep, "error": error})
        kinds = {r["traced"] for r in results}
        enough_kinds = len(kinds) == 2 if args.trace else True
        if (time.perf_counter() - start >= args.seconds and enough_kinds) or time.monotonic() > deadline:
            break

    units = workload.units(inputs)
    attempted = units * len(results)
    failed = 0
    good = []
    for r in results:
        if "error" in r:
            problems.append(r["error"])
            failed += units
            continue
        good.append(r)
        problems.extend(r["problems"])
        failed += units if r["problems"] else r["failed"]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("too few repetitions completed: " + "; ".join(problems), file=sys.stderr)
        return 1
    first = good[0]
    for r in good[1:]:
        differing = [role for role, value in first["digests"].items() if r["digests"][role] != value]
        if differing:
            problems.append("outputs differ between repetitions: " + ", ".join(differing))
    for r in traced[1:]:
        differing = [key for key, unit in PER_LAYER.items()
                     if unit in ("count", "bytes") and r["layers"][key] != traced[0]["layers"][key]]
        if differing:
            problems.append("counts differ between traced repetitions: " + ", ".join(differing))
    problems.extend(workload.final_check(inputs, first["job"], work_root))

    report = {
        "setup_s": statistics.median(setup_times),
        "job_s": best_of(untraced, "job_s"),
        "job_cpu_s": best_of(untraced, "job_cpu_s"),
        "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
    }
    if first["mine_s"] is not None:
        mine_s = best_of(untraced, "mine_s")
        pairs = len(inputs.corpus.pairs)
        report["doc_pairs_per_s"] = pairs / mine_s
        report["cells_per_s"] = inputs.corpus.cells() / mine_s
        report["failed_pair_ratio"] = sum(r["failed"] for r in good) / (pairs * len(good))
    else:
        report["trials_per_s"] = workload.size.budget / report["job_s"]
    for key in first["quality"]:
        report[key] = statistics.median(r["quality"][key] for r in good)

    print(f"workload = {workload.name} (seed {args.seed}, {len(results)} repetitions, "
          f"{len(traced)} traced, {units} {workload.unit} each)")
    print("job_s of each repetition = " + " ".join(
        f"{r['job_s']:.3f}{' traced' if r['traced'] else ''}" for r in good))
    for key, unit in ALL_END_TO_END.items():
        value = report.get(key)
        print(f"{key} = {'n/a' if value is None else f'{value:.6g}'} {unit}")
    layers = {}
    if traced:
        # Counts are identical across traced repetitions (checked above).
        layers = {
            key: value if PER_LAYER.get(key) in ("count", "bytes")
            else statistics.median(r["layers"][key] for r in traced)
            for key, value in traced[0]["layers"].items()
        }
        layers["trace.overhead_s"] = best_of(traced, "job_s") - report["job_s"]
        for key, unit in {**PER_LAYER, **WORKLOAD_SPECIFIC}.items():
            print(f"{key} = {layers[key]:.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "workload": workload.name, "seed": args.seed, "host": host, "end_to_end": report,
        "per_layer": layers, "problems": problems, "setup_s": setup_times,
        "repetitions": [{k: r.get(k) for k in ("traced", "job_s", "job_cpu_s", "peak_rss_mb", "error")}
                        for r in results],
    }
    if traced:
        summary["spans"] = traced[-1]["spans"]
    summary_path = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)

    if args.trace:
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit in PER_LAYER.items()}
    else:
        metrics = {key: {"value": report[key], "unit": unit} for key, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
