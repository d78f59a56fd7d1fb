"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: exhaustive enumeration instead
of dynamic programming, dict-based EM written from the update equations,
scoring one cell at a time through the per-pair feature extractor
instead of array blocks, and markup cleaning and sentence segmentation
by whole-text regex passes that may rescan the text.  These stay
separate from the package's fast paths so each check has two routes.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import replace

import numpy as np

from bimine.align import MiningConfig, build_score_matrix, filter_by_threshold, run_engine
from bimine.classifier import extract_features
from bimine.tuning import GAP_PENALTY_RANGE, TuningResult, alignment_agreement


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


def reference_score_matrix(model, lexicon, source_sentences, target_sentences) -> np.ndarray:
    """Similarity matrix one cell at a time: features, margin, sigmoid."""
    matrix = np.empty((len(source_sentences), len(target_sentences)))
    for i, source in enumerate(source_sentences):
        for j, target in enumerate(target_sentences):
            features = extract_features(source, target, lexicon)
            matrix[i, j] = model.score_from_margin(model.margin(features))
    return matrix


def reference_tune(model, lexicon, samples, budget, seed, engine="nw", base_config=None):
    """Random-search tuning one trial at a time: every trial realigns
    every sample with its own engine call (no batched fills)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not samples:
        raise ValueError("no tuning samples")
    config = base_config if base_config is not None else MiningConfig()
    matrices = [
        build_score_matrix(model, lexicon, s.pair.source.sentences, s.pair.target.sentences)
        for s in samples
    ]
    rng = np.random.default_rng(seed)
    best = None
    default_agreement = 0.0
    for trial in range(budget):
        if trial == 0:
            threshold, gap_penalty = config.threshold, config.gap_penalty
        else:
            threshold = float(rng.uniform(0.0, 1.0))
            gap_penalty = float(rng.uniform(*GAP_PENALTY_RANGE))
        trial_config = replace(config, threshold=threshold, gap_penalty=gap_penalty)
        agreements = []
        for matrix, sample in zip(matrices, samples):
            alignment = run_engine(matrix, trial_config, engine)
            matched = filter_by_threshold(matrix, alignment, threshold)
            agreements.append(
                alignment_agreement([(i, j) for _, i, j in matched], sample.reference)
            )
        agreements = tuple(agreements)
        mean_agreement = sum(agreements) / len(agreements)
        if trial == 0:
            default_agreement = mean_agreement
        if best is None or mean_agreement > best[0]:
            best = (mean_agreement, trial, threshold, gap_penalty, agreements)
    mean_agreement, _, threshold, gap_penalty, agreements = best
    return TuningResult(
        threshold=threshold,
        gap_penalty=gap_penalty,
        agreement=mean_agreement,
        trials=budget,
        per_sample=agreements,
        default_agreement=default_agreement,
    )


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


_NOISE_TAGS = ("table", "ref", "references", "figure", "gallery")
_ENTITY_MAP = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
_ENTITY_RE = re.compile(r"&(amp|lt|gt|quot|apos);")
_NOISE_RE = re.compile(
    r"<(" + "|".join(_NOISE_TAGS) + r")\b[^>]*>.*?</\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"</?[a-zA-Z][^>]*>")
_UNCLOSED_TAG_RE = re.compile(r"<[/a-zA-Z][^>\n]*")
_WS_RE = re.compile(r"\s+")
_ABBREVIATIONS = frozenset(
    ["mr", "mrs", "ms", "dr", "prof", "st", "jr", "sr", "vs", "etc", "eg", "ie", "vol", "no", "fig"]
)
_BOUNDARY_RE = re.compile(r"[.!?]\s+(?=[A-Z0-9])")
_TRAILING_WORD_RE = re.compile(r"([A-Za-z0-9]+)$")


def reference_clean_markup(raw: str) -> str:
    """Markup cleaning as one regex substitution per pass; a noise
    opening without a close rescans the rest of the text."""
    text = raw
    while True:
        decoded = _ENTITY_RE.sub(lambda m: _ENTITY_MAP[m.group(1)], text)
        if decoded == text:
            break
        text = decoded
    text = _NOISE_RE.sub(" ", text)
    text = _TAG_RE.sub(" ", text)
    text = _UNCLOSED_TAG_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def reference_segment_sentences(text: str) -> list[str]:
    """Sentence segmentation that finds the word before each period by
    a regex over the whole prefix (quadratic in the text length)."""

    def guarded(prefix: str) -> bool:
        m = _TRAILING_WORD_RE.search(prefix)
        if m is None:
            return False
        word = m.group(1)
        if len(word) == 1 and word.isalpha() and word.isupper():
            return True
        return word.lower() in _ABBREVIATIONS

    sentences: list[str] = []
    start = 0
    for m in _BOUNDARY_RE.finditer(text):
        if text[m.start()] == "." and guarded(text[: m.start()]):
            continue
        piece = text[start : m.start() + 1].strip()
        if piece:
            sentences.append(piece)
        start = m.end()
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences
