"""Command-line pipeline: ingest, dict, train, tune, mine, stats, bench.

Each ``_cmd_*`` does its command's work and returns ``(exit code,
manifest path, input paths)``.  ``main`` times the whole command, its
last print included, and writes its run manifest (``manifest``) once it
returns; a command that raises writes none.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .align import MiningConfig, astar_align, mine_corpus, nw_align
from .classifier import (
    load_model,
    make_negative_pairs,
    save_model,
    tokenizable_pairs,
    train_classifier,
    training_accuracy,
    training_features,
)
from .corpus import (
    corpus_files,
    corpus_stats,
    ingest_documents,
    load_corpus,
    pair_articles,
    read_bitext,
    read_links,
    read_parallel,
    save_corpus,
    write_bitext,
)
from .demos import (
    DEMO_CONFIG,
    SYMBOL_SOURCE,
    SYMBOL_TARGET,
    WORD_SOURCE,
    WORD_TARGET,
    exact_match_matrix,
    render_alignment,
)
from .lexicon import build_lexicon, merge_title_lexicon, read_lexicon, write_lexicon
from .manifest import RunManifest, file_digest, write_manifest
from .tuning import read_samples, tune

# The search each ``bench`` engine name times.  "nw-wavefront" named a
# retired anti-diagonal fill with the same output; it stays as an alias
# of "nw" so existing command lines keep working.
_CLI_ENGINES = {"nw": nw_align, "nw-wavefront": nw_align, "astar": astar_align}


def _engine_arg(parser: argparse.ArgumentParser) -> None:
    # Mining and tuning always align by dynamic programming; A* is timed
    # by ``bench`` only.
    parser.add_argument(
        "--engine",
        choices=("nw", "nw-wavefront"),
        default="nw",
        help="alignment engine: nw (default) or nw-wavefront, an alias of nw",
    )


def _engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float, default=0.5)
    parser.add_argument("--gap-penalty", type=float, default=2.0)
    parser.add_argument("--match-bonus", type=float, default=1.0)
    parser.add_argument("--mismatch-cost", type=float, default=-1.0)
    _engine_arg(parser)


def _manifest_for(args: argparse.Namespace, inputs: list[str], started: float) -> RunManifest:
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command") and not callable(value)
    }
    return RunManifest(
        command=args.command,
        parameters=parameters,
        inputs={path: file_digest(path) for path in inputs},
        tool_version=__version__,
        wall_time_ms=int((time.perf_counter() - started) * 1000),
    )


def _cmd_ingest(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    source_docs = ingest_documents(args.source_file, args.source_lang)
    target_docs = ingest_documents(args.target_file, args.target_lang)
    links = read_links(args.links_file)
    result = pair_articles(source_docs, target_docs, links)
    save_corpus(result.pairs, args.out_dir)
    if args.verbose:
        for pair in result.pairs:
            print(
                f"paired {pair.topic_id!r}: {len(pair.source.sentences)} source / "
                f"{len(pair.target.sentences)} target sentences"
            )
    print(
        f"{len(result.pairs)} paired, {result.skipped} skipped, "
        f"{result.duplicates} duplicates"
    )
    inputs = [args.source_file, args.target_file, args.links_file]
    return 0, os.path.join(args.out_dir, "manifest.json"), inputs


def _cmd_dict(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    parallel = read_parallel(args.parallel_file)
    lexicon = build_lexicon(parallel, args.iterations)
    inputs = [args.parallel_file]
    if args.titles:
        titles = read_links(args.titles)
        lexicon, skipped = merge_title_lexicon(lexicon, titles)
        inputs.append(args.titles)
        print(f"merged {len(titles) - skipped} title pairs, skipped {skipped}")
    write_lexicon(lexicon, args.out_file)
    print(f"{len(lexicon)} lexicon entries written to {args.out_file}")
    return 0, args.out_file + ".manifest.json", inputs


def _cmd_train(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    pairs = read_parallel(args.parallel_file)
    lexicon = read_lexicon(args.lexicon_file)
    # The pairs that ``dict`` drops too: a side without tokens.
    positives, distinct, encoded = tokenizable_pairs(pairs, lexicon)
    skipped = len(pairs) - len(positives)
    if skipped:
        print(f"skipped {skipped} untokenizable training pairs", file=sys.stderr)
    if not positives:
        raise ValueError(f"{args.parallel_file}: no training pairs")
    if len(positives) < 2:
        raise ValueError(f"{args.parallel_file}: need at least 2 training pairs, got 1")
    negatives = make_negative_pairs(positives, args.seed)
    x = training_features(positives + negatives, lexicon, distinct, encoded)
    y = np.repeat([1.0, -1.0], [len(positives), len(negatives)])
    model = train_classifier(x, y, args.epochs, args.seed)
    save_model(model, args.out_model)
    accuracy = training_accuracy(model, x, y)
    print(f"training accuracy: {100.0 * accuracy:.1f}%")
    return 0, args.out_model + ".manifest.json", [args.parallel_file, args.lexicon_file]


def _cmd_tune(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    pairs = load_corpus(args.corpus_dir)
    model = load_model(args.model_file)
    lexicon = read_lexicon(args.lexicon_file)
    samples = read_samples(args.reference_file, pairs)
    result = tune(model, lexicon, samples, budget=args.budget, seed=args.seed)
    report = {
        "threshold": result.threshold,
        "gap_penalty": result.gap_penalty,
        "agreement": result.agreement,
        "trials": result.trials,
        "per_sample_agreement": list(result.per_sample),
        "default_agreement": result.default_agreement,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    improvement = result.agreement - result.default_agreement
    print(
        f"threshold={result.threshold:.4f} gap_penalty={result.gap_penalty:.4f} "
        f"agreement={result.agreement:.2f}%"
    )
    print(f"improvement over defaults: {improvement:.2f}%")
    inputs = [*corpus_files(args.corpus_dir), args.model_file, args.lexicon_file]
    return 0, args.out + ".manifest.json", [*inputs, args.reference_file]


def _cmd_mine(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    # Checked before any input is read, so a bad value fails at once.
    config = MiningConfig(
        threshold=args.threshold,
        gap_penalty=args.gap_penalty,
        match_bonus=args.match_bonus,
        mismatch_cost=args.mismatch_cost,
        workers=args.workers,
    )
    pairs = load_corpus(args.corpus_dir)
    model = load_model(args.model_file)
    lexicon = read_lexicon(args.lexicon_file)
    outcome = mine_corpus(model, lexicon, pairs, config)
    write_bitext(args.out_file, outcome.rows)
    if args.verbose:
        counts: dict[str, int] = {}
        for score, _, _ in outcome.rows:
            bucket = f"{int(score * 10) / 10:.1f}"
            counts[bucket] = counts.get(bucket, 0) + 1
        for bucket in sorted(counts):
            print(f"score {bucket}x: {counts[bucket]} pairs")
    print(f"{len(outcome.rows)} sentence pairs mined from {len(pairs)} document pairs")
    for topic_id, error in outcome.failures:
        print(f"failed: {topic_id}: {error}", file=sys.stderr)
    if outcome.failures:
        print(f"{len(outcome.failures)} document pairs failed", file=sys.stderr)
    inputs = [*corpus_files(args.corpus_dir), args.model_file, args.lexicon_file]
    return int(bool(outcome.failures)), args.out_file + ".manifest.json", inputs


def _cmd_stats(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    stats = corpus_stats(read_bitext(args.bitext_file))
    rows = [
        ("bi-sentences", stats.pair_count),
        ("unique source tokens", stats.source_unique_tokens),
        ("unique target tokens", stats.target_unique_tokens),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value}")
    return 0, args.manifest_out, [args.bitext_file]


def _cmd_bench(args: argparse.Namespace) -> tuple[int, str, list[str]]:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part]
    except ValueError as exc:
        raise UsageError(f"sizes must be positive integers: {exc}") from None
    if not sizes or min(sizes) < 1:
        raise UsageError("sizes must be positive integers")
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    if not engines:
        raise UsageError("engines must name at least one engine")
    for name in engines:
        if name not in _CLI_ENGINES:
            raise UsageError(f"unknown engine {name!r}")

    rng = np.random.default_rng(args.seed)
    config = MiningConfig()
    records = []
    for size in sizes:
        matrix = rng.random((size, size))
        for engine in engines:
            search = _CLI_ENGINES[engine]
            search(matrix, config)  # warm caches before timing
            elapsed_ms = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                search(matrix, config)
                elapsed_ms = min(elapsed_ms, (time.perf_counter() - start) * 1000.0)
            records.append({"size": size, "engine": engine, "ms": round(elapsed_ms, 3)})

    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["size", "engine", "ms"])
        writer.writeheader()
        writer.writerows(records)
    print(f"benchmark written to {args.out} ({len(records)} rows)")

    for label, source, target in (
        ("symbols", SYMBOL_SOURCE, SYMBOL_TARGET),
        ("words", WORD_SOURCE, WORD_TARGET),
    ):
        matrix = exact_match_matrix(source, target)
        monotone = nw_align(matrix, DEMO_CONFIG)
        free = astar_align(matrix, DEMO_CONFIG, constrained=False)
        for mode, alignment in (("monotone", monotone), ("unconstrained", free)):
            source_line, target_line = render_alignment(alignment, source, target)
            print(f"{label} / {mode} (score {alignment.score:g}):")
            print(f"  target: {target_line}")
            print(f"  source: {source_line}")
    return 0, args.out + ".manifest.json", []


class UsageError(Exception):
    """Raised for invalid command-line values; exits with status 2."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for mine (default 1); the other commands run in one process",
    )
    common.add_argument("--verbose", action="store_true")

    parser = argparse.ArgumentParser(
        prog="bimine",
        description="Mine translation-equivalent sentence pairs from comparable corpora.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", parents=[common], help="pair bilingual documents")
    p_ingest.add_argument("source_file")
    p_ingest.add_argument("target_file")
    p_ingest.add_argument("links_file")
    p_ingest.add_argument("out_dir")
    p_ingest.add_argument("--source-lang", required=True)
    p_ingest.add_argument("--target-lang", required=True)
    p_ingest.set_defaults(func=_cmd_ingest)

    p_dict = sub.add_parser("dict", parents=[common], help="build the translation lexicon")
    p_dict.add_argument("parallel_file")
    p_dict.add_argument("out_file")
    p_dict.add_argument("--titles")
    p_dict.add_argument("--iterations", type=int, default=10)
    p_dict.set_defaults(func=_cmd_dict)

    p_train = sub.add_parser("train", parents=[common], help="train the similarity classifier")
    p_train.add_argument("parallel_file")
    p_train.add_argument("lexicon_file")
    p_train.add_argument("out_model")
    p_train.add_argument("--epochs", type=int, default=20)
    p_train.set_defaults(func=_cmd_train)

    p_tune = sub.add_parser("tune", parents=[common], help="tune threshold and gap penalty")
    p_tune.add_argument("corpus_dir")
    p_tune.add_argument("model_file")
    p_tune.add_argument("lexicon_file")
    p_tune.add_argument("reference_file")
    p_tune.add_argument("--budget", type=int, default=100)
    _engine_arg(p_tune)
    p_tune.add_argument("--out", default="tuning_report.json")
    p_tune.set_defaults(func=_cmd_tune)

    p_mine = sub.add_parser("mine", parents=[common], help="mine parallel sentences")
    p_mine.add_argument("corpus_dir")
    p_mine.add_argument("model_file")
    p_mine.add_argument("lexicon_file")
    p_mine.add_argument("out_file")
    _engine_args(p_mine)
    p_mine.set_defaults(func=_cmd_mine)

    p_stats = sub.add_parser("stats", parents=[common], help="report mined corpus statistics")
    p_stats.add_argument("bitext_file")
    p_stats.add_argument("--manifest-out", default="stats.manifest.json")
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser("bench", parents=[common], help="time the alignment engines")
    p_bench.add_argument("--sizes", default="200")
    p_bench.add_argument("--engines", default="nw,astar")
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "dict" and args.iterations < 1:
        parser.error("--iterations must be >= 1")
    if args.command == "train" and args.epochs < 1:
        parser.error("--epochs must be >= 1")
    if args.command == "tune" and args.budget < 1:
        parser.error("--budget must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.command == "ingest":
        # A pair needs two languages, and pairs.tsv stores them unescaped,
        # without tabs or line breaks; checked before any file is read.
        langs = (("--source-lang", args.source_lang), ("--target-lang", args.target_lang))
        for option, lang in langs:
            if not lang.strip():
                parser.error(f"{option} is empty")
            if any(c in lang for c in "\t\n\r"):
                parser.error(f"{option} {lang!r} contains a tab or line break")
        if args.source_lang == args.target_lang:
            parser.error(f"--source-lang and --target-lang are both {args.source_lang!r}")
    started = time.perf_counter()
    try:
        code, manifest_path, inputs = args.func(args)
        write_manifest(manifest_path, _manifest_for(args, inputs, started))
        return code
    except UsageError as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error raises SystemExit
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
