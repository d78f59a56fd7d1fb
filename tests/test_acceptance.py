"""Acceptance suite: one test per release criterion, one line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion states its tolerance inline.
"""

import os
import time

import numpy as np
import pytest

from bimine import kernels
from bimine.align import (
    Match,
    MiningConfig,
    align_pair_indices,
    astar_align,
    filter_by_threshold,
    mine_corpus,
    nw_align,
    nw_align_wavefront,
)
from bimine.classifier import make_negative_pairs, similarity
from bimine.cli import main
from bimine.demos import (
    DEMO_CONFIG,
    SYMBOL_SOURCE,
    SYMBOL_TARGET,
    WORD_SOURCE,
    WORD_TARGET,
    exact_match_matrix,
    render_alignment,
)
from bimine.lexicon import build_lexicon
from bimine.tuning import TuningSample, tune

from conftest import (
    SOURCE_VOCAB,
    TARGET_VOCAB,
    build_corpus_files,
    make_mining_pair,
    make_parallel_sentences,
)
from oracles import brute_force_best_score, reference_dp_table

EXACT_CONFIG = MiningConfig(threshold=0.0, gap_penalty=2.0, match_bonus=1.0, mismatch_cost=-1.0)


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {verdict}{suffix}")
    assert passed, f"criterion {number} {name} failed{suffix}"


def small_exact_instances(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        source = rng.integers(0, 3, size=n)
        target = rng.integers(0, 3, size=m)
        yield (source[:, None] == target[None, :]).astype(np.float64)


@pytest.fixture(scope="module")
def small_instances():
    return list(small_exact_instances(200, seed=1001))


def test_criterion_1_nw_optimality(small_instances):
    started = time.perf_counter()
    mismatches = 0
    for sim in small_instances:
        expected = brute_force_best_score(
            sim, EXACT_CONFIG.match_bonus, EXACT_CONFIG.mismatch_cost, EXACT_CONFIG.gap_penalty
        )
        if nw_align(sim, EXACT_CONFIG).score != expected:
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "nw optimality vs exhaustive enumeration",
        mismatches == 0 and elapsed < 10.0,
        f"200 instances, {mismatches} mismatches, {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_wavefront_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2002)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        sim = rng.random((n, m))
        config = MiningConfig(gap_penalty=float(rng.uniform(0.0, 3.0)))
        sequential = nw_align(sim, config)
        for workers in (1, 2, 4, 8):
            wavefront = nw_align_wavefront(sim, config, workers)
            if wavefront.score != sequential.score or wavefront.steps != sequential.steps:
                mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        "wavefront bit-exact equivalence",
        mismatches == 0 and elapsed < 60.0,
        f"500 instances x workers {{1,2,4,8}}, {mismatches} mismatches, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_fill_matches_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2002)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        sim = rng.random((n, m))
        config = MiningConfig(gap_penalty=float(rng.uniform(0.0, 3.0)))
        args = (config.mismatch_cost, config.match_bonus, config.gap_penalty)
        if not np.array_equal(kernels.fill_sequential(sim, *args), reference_dp_table(sim, *args)):
            mismatches += 1
    elapsed = time.perf_counter() - started
    report(
        2,
        "fill equal to the plain-loop oracle, cell for cell",
        mismatches == 0 and elapsed < 60.0,
        f"500 instances, {mismatches} mismatches, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_showcase_reproduction():
    sim = exact_match_matrix(SYMBOL_SOURCE, SYMBOL_TARGET)
    source_line, target_line = render_alignment(
        nw_align(sim, DEMO_CONFIG), SYMBOL_SOURCE, SYMBOL_TARGET
    )
    symbol_monotone_ok = (
        target_line == "a, d, -, -, e, g, f" and source_line == "a, d, c, d, e, -, -"
    )
    free_source, free_target = render_alignment(
        astar_align(sim, DEMO_CONFIG, constrained=False), SYMBOL_SOURCE, SYMBOL_TARGET
    )
    symbol_free_ok = (
        free_target == "a, d, a, d, e, g, f" and free_source == "a, d, c, d, e, -, -"
    )

    word_sim = exact_match_matrix(WORD_SOURCE, WORD_TARGET)
    word_alignment = nw_align(word_sim, DEMO_CONFIG)
    word_matches = {
        (WORD_SOURCE[s.i], WORD_TARGET[s.j])
        for s in word_alignment.steps
        if isinstance(s, Match)
    }
    word_monotone_ok = word_matches == {
        ("tablets", "tablets"),
        ("make", "make"),
        ("children", "children"),
    }
    _, word_free_target = render_alignment(
        astar_align(word_sim, DEMO_CONFIG, constrained=False), WORD_SOURCE, WORD_TARGET
    )
    word_free_ok = (
        word_free_target == "tablets, make, tablets, make, children, very, addicted"
    )

    report(
        3,
        "showcase alignments reproduced exactly",
        symbol_monotone_ok and symbol_free_ok and word_monotone_ok and word_free_ok,
        f"symbol monotone {symbol_monotone_ok}, symbol unconstrained {symbol_free_ok}, "
        f"word monotone {word_monotone_ok}, word unconstrained {word_free_ok}",
    )


def test_criterion_4_astar_matches_nw(small_instances):
    mismatches = sum(
        1
        for sim in small_instances
        if astar_align(sim, EXACT_CONFIG, constrained=True).score
        != nw_align(sim, EXACT_CONFIG).score
    )
    report(
        4,
        "constrained best-first search equals the dynamic program",
        mismatches == 0,
        f"200 instances, {mismatches} score mismatches",
    )


def test_criterion_5_threshold_soundness():
    rng = np.random.default_rng(5005)
    violations = 0
    for _ in range(100):
        sim = rng.random((int(rng.integers(2, 30)), int(rng.integers(2, 30))))
        alignment = nw_align(sim, MiningConfig())
        t_high = float(rng.uniform(0.5, 1.0))
        t_low = float(rng.uniform(0.0, 0.5))
        high = filter_by_threshold(sim, alignment, t_high)
        low = filter_by_threshold(sim, alignment, t_low)
        if any(score < t_high for score, _, _ in high):
            violations += 1
        if not set(high).issubset(set(low)):
            violations += 1
    report(
        5,
        "threshold filtering sound and monotone",
        violations == 0,
        f"100 documents, {violations} violations",
    )


def test_criterion_6_tuning_recovery(toy_model, toy_lexicon):
    rng = np.random.default_rng(6006)
    reference_config = MiningConfig(threshold=0.6)
    samples = []
    for k in range(6):
        pair, _ = make_mining_pair(rng, f"planted-{k}", true_pairs=6, target_noise=2)
        mined = align_pair_indices(toy_model, toy_lexicon, pair, reference_config, engine="nw")
        samples.append(TuningSample(pair=pair, reference=tuple((i, j) for _, i, j in mined)))
    result = tune(toy_model, toy_lexicon, samples, budget=200, seed=42)
    report(
        6,
        "tuning recovers the planted threshold region",
        result.agreement >= 95.0 and result.agreement >= result.default_agreement,
        f"agreement {result.agreement:.2f}% (default {result.default_agreement:.2f}%), "
        f"threshold {result.threshold:.3f}, penalty {result.gap_penalty:.3f}",
    )


def test_criterion_7_lexicon_em_sanity():
    corpus = make_parallel_sentences(np.random.default_rng(7007), 50)
    unpruned = build_lexicon(corpus, iterations=10, prune_threshold=0.0)
    row_sum_ok = all(
        abs(sum(unpruned.translations(s).values()) - 1.0) <= 1e-9
        for s in unpruned.source_tokens()
    )
    translation = dict(zip(SOURCE_VOCAB, TARGET_VOCAB))
    seen = [s for s in SOURCE_VOCAB if unpruned.translations(s)]
    correct = sum(
        1
        for s in seen
        if max(unpruned.translations(s), key=unpruned.translations(s).get) == translation[s]
    )
    accuracy = correct / len(seen)
    report(
        7,
        "lexicon EM argmax accuracy and row normalization",
        accuracy >= 0.9 and row_sum_ok,
        f"argmax accuracy {100 * accuracy:.0f}% over {len(seen)} tokens, "
        f"rows normalized {row_sum_ok}",
    )


def test_criterion_8_classifier_sanity(toy_model, toy_lexicon):
    rng = np.random.default_rng(8008)
    positives = make_parallel_sentences(rng, 100)
    negatives = make_negative_pairs(positives, seed=8009)
    pos_scores = [similarity(toy_model, s, t, toy_lexicon) for s, t in positives]
    neg_scores = [similarity(toy_model, s, t, toy_lexicon) for s, t in negatives]
    correct = sum(1 for v in pos_scores if v >= 0.5) + sum(1 for v in neg_scores if v < 0.5)
    accuracy = correct / (len(pos_scores) + len(neg_scores))
    in_bounds = all(0.0 <= v <= 1.0 for v in pos_scores + neg_scores)
    margins = np.linspace(-40.0, 40.0, 401)
    curve = [toy_model.score_from_margin(d) for d in margins]
    monotone = all(b >= a for a, b in zip(curve, curve[1:]))
    report(
        8,
        "classifier held-out accuracy and calibrated scores",
        accuracy >= 0.9 and in_bounds and monotone,
        f"accuracy {100 * accuracy:.0f}% on 100+100, bounds {in_bounds}, monotone {monotone}",
    )


@pytest.fixture(scope="module")
def cli_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_cli")
    build_corpus_files(root, np.random.default_rng(9009), doc_pairs=6, sentences_per_doc=6)
    assert (
        main(
            [
                "ingest",
                str(root / "source_docs.tsv"),
                str(root / "target_docs.tsv"),
                str(root / "links.tsv"),
                str(root / "corpus"),
                "--source-lang",
                "eo",
                "--target-lang",
                "en",
            ]
        )
        == 0
    )
    assert main(["dict", str(root / "parallel.tsv"), str(root / "lexicon.tsv")]) == 0
    return root


def test_criterion_9_determinism(cli_pipeline):
    root = cli_pipeline
    model_bytes = []
    for run in range(2):
        out_model = root / f"model_run{run}.json"
        assert (
            main(
                [
                    "train",
                    str(root / "parallel.tsv"),
                    str(root / "lexicon.tsv"),
                    str(out_model),
                    "--epochs",
                    "10",
                    "--seed",
                    "42",
                ]
            )
            == 0
        )
        model_bytes.append(out_model.read_bytes())
    train_identical = model_bytes[0] == model_bytes[1]

    mined_bytes = []
    for workers in (1, 4):
        out_file = root / f"mined_w{workers}.tsv"
        assert (
            main(
                [
                    "mine",
                    str(root / "corpus"),
                    str(root / "model_run0.json"),
                    str(root / "lexicon.tsv"),
                    str(out_file),
                    "--workers",
                    str(workers),
                ]
            )
            == 0
        )
        mined_bytes.append(out_file.read_bytes())
    mine_identical = mined_bytes[0] == mined_bytes[1]

    report(
        9,
        "byte-identical training reruns and worker-invariant mining",
        train_identical and mine_identical,
        f"train rerun identical {train_identical}, mine workers 1 vs 4 identical {mine_identical}",
    )


def test_criterion_10_throughput_scaling(toy_model, toy_lexicon):
    started = time.perf_counter()
    rng = np.random.default_rng(1010)
    pairs = [
        make_mining_pair(rng, f"bulk-{k}", true_pairs=48, target_noise=2)[0]
        for k in range(200)
    ]

    t0 = time.perf_counter()
    serial = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=1))
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=4))
    parallel_seconds = time.perf_counter() - t0

    elapsed = time.perf_counter() - started
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
    identical = serial == parallel
    cores = os.cpu_count() or 1
    detail = (
        f"{speedup:.2f}x with 4 workers on {cores} cores "
        f"(serial {serial_seconds:.1f}s, parallel {parallel_seconds:.1f}s, "
        f"total {elapsed:.1f}s, budget 120s), outputs identical {identical}"
    )
    if cores < 4:
        # The 2x floor presumes at least 4 cores; on smaller machines only
        # output identity and the time budget are asserted and the
        # measured speedup is put on record.
        report(10, "mining throughput scaling", identical and elapsed < 120.0, detail)
        pytest.skip(f"host has {cores} cores, criterion floor of 2.0x presumes >= 4; {detail}")
    report(
        10,
        "mining throughput scaling",
        identical and elapsed < 120.0 and speedup >= 2.0,
        detail,
    )
