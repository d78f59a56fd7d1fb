"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: exhaustive enumeration instead
of dynamic programming, a traceback that records every step as it
walks, mining and tuning one document pair at a time with its own
search (``ENGINES``), dict-based EM written from the update equations,
features of one sentence pair at a time from the lexicon's dict rows
instead of array blocks, Pegasos training one step at a time,
markup cleaning and sentence segmentation by whole-text regex passes
that may rescan the text, a paired corpus loaded one sentence row at a
time, keyed by index, a lexicon built from and read back as a table of
dict rows, co-occurrences numbered through ``np.unique``, a lexicon
file written from one tuple sort a line at a time, training features of
one 1x1 pair per example, the sigmoid of one margin at a time, and
libm's ``exp`` one ``math.exp`` call per value.  These stay
separate from the package's fast paths so each check has two routes.
"""

from __future__ import annotations

import math
import os
import re
from collections import defaultdict
from dataclasses import replace
from itertools import count, islice

import numpy as np

from bimine.align import (
    GapSource,
    GapTarget,
    Match,
    MiningConfig,
    Step,
    astar_align,
    build_score_matrix,
    filter_by_threshold,
    nw_align,
)
from bimine.classifier import (
    FEATURE_COUNT,
    L2_LAMBDA,
    ZERO_VARIANCE_EPS,
    _features,
    pair_blocks,
)
from bimine.corpus import Document, DocumentPair, integer, unescape_field
from bimine.lexicon import Lexicon
from bimine.text import tokenize
from bimine.tuning import GAP_PENALTY_RANGE, TuningResult, alignment_agreement

# The searches the oracles align with, by the name a parametrized test
# gives; A* is constrained by default.
ENGINES = {"nw": nw_align, "astar_constrained": astar_align}


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


def reference_moves(
    table: np.ndarray, sim: np.ndarray, mismatch_cost: float, match_bonus: float, gap_penalty: float
) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal and up moves of every interior cell of a score table
    (``reference_dp_table`` of ``sim``), as two ``(n, m)`` bool arrays.

    A cell's diagonal move holds when its diagonal candidate reaches the
    better gap candidate, its up move when the up candidate reaches the
    left one; each candidate is recomputed from the table, one cell at a
    time, and rounded as the fill rounds it.
    """
    n, m = sim.shape
    dp, cells = table.tolist(), sim.tolist()
    diag = np.zeros((n, m), dtype=bool)
    up = np.zeros((n, m), dtype=bool)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cell = mismatch_cost + cells[i - 1][j - 1] * (match_bonus - mismatch_cost)
            from_up, from_left = dp[i - 1][j] - gap_penalty, dp[i][j - 1] - gap_penalty
            diag[i - 1, j - 1] = dp[i - 1][j - 1] + cell >= max(from_up, from_left)
            up[i - 1, j - 1] = from_up >= from_left
    return diag, up


def reference_traceback(
    dp_rev: memoryview, sim: memoryview, mismatch: float, bonus: float, gap: float
) -> list[Step]:
    """Every step of the traceback, recorded as it is walked (the package's
    former ``align._traceback``).

    ``dp_rev`` is the table of the reversed problem, ``sim`` the scores.
    """
    # dp_rev is the table of the reversed problem, so dp_rev[n-i, m-j] is
    # the best score of the remaining suffixes.  Walking forward from
    # (0, 0) lets ties resolve in reading order: diagonal first, then
    # source gap, then target gap.  Every cell of dp_rev was assigned as
    # the max of the candidates recomputed here, so one equality always
    # holds exactly.  Both tables are read through memoryviews, which
    # return the same IEEE doubles as Python floats at a third of the
    # cost of a numpy scalar and, unlike ``tolist``, convert only the
    # O(n + m) cells the walk visits.
    n, m = sim.shape
    steps: list[Step] = []
    i = j = 0
    while i < n and j < m:
        value = dp_rev[n - i, m - j]
        c = mismatch + sim[i, j] * (bonus - mismatch)
        if value == c + dp_rev[n - i - 1, m - j - 1]:
            steps.append(Match(i, j))
            i += 1
            j += 1
        elif value == dp_rev[n - i - 1, m - j] - gap:
            steps.append(GapSource(i))
            i += 1
        else:
            steps.append(GapTarget(j))
            j += 1
    while i < n:
        steps.append(GapSource(i))
        i += 1
    while j < m:
        steps.append(GapTarget(j))
        j += 1
    return steps


def extract_features(source_sentence, target_sentence, lexicon) -> list[float]:
    """Six-feature description of a sentence pair, token by token (the
    package's former per-pair extractor)."""
    source, target = tokenize(source_sentence), tokenize(target_sentence)
    for sentence, tokens in ((source_sentence, source), (target_sentence, target)):
        if not tokens:
            raise ValueError(f"untokenizable sentence: {sentence!r}")
    source_set, target_set = set(source), set(target)
    token_ratio = min(len(source) / len(target), 4.0)
    char_ratio = min(len(source_sentence) / len(target_sentence), 4.0)

    covered = 0
    best_prob_sum = 0.0
    for s in source:
        best = 0.0
        for t, p in lexicon.translations(s).items():
            if t in target_set and p > best:
                best = p
        if best > 0.0:
            covered += 1
            best_prob_sum += best
    source_coverage = covered / len(source)
    mean_best_prob = best_prob_sum / covered if covered else 0.0

    reach: set[str] = set()
    for s in source_set:
        reach.update(t for t, p in lexicon.translations(s).items() if p > 0.0)
    covered_target = 0
    for t in target:
        if t in reach:
            covered_target += 1
    target_coverage = covered_target / len(target)

    shared = len(source_set & target_set)
    overlap = shared / max(len(source_set), len(target_set))

    return [token_ratio, source_coverage, target_coverage, mean_best_prob, char_ratio, overlap]


def reference_training_features(examples, lexicon, distinct, encoded) -> np.ndarray:
    """``classifier.training_features`` with each example as a 1x1 pair of
    the block feature stage (the package's former grouping)."""
    index = dict(zip(distinct, range(len(distinct))))
    numbers = np.array([(index[s], index[t]) for s, t in examples], dtype=np.intp).reshape(-1, 2)
    if not encoded.tokens[numbers].all():
        first = numbers.flat[np.argmin(encoded.tokens[numbers])]
        raise ValueError(f"untokenizable sentence: {distinct[first]!r}")
    x = np.empty((len(examples), FEATURE_COUNT))
    for block in pair_blocks([(1, 1)] * len(examples)):
        (source, target), ones = numbers[block].T, np.ones(block.stop - block.start, np.intp)
        for cells, features in _features(lexicon.compiled(), encoded, source, target, ones, ones):
            x[block.start + cells.start : block.start + cells.stop] = np.column_stack(features)
    return x


def reference_pegasos(x: np.ndarray, y: np.ndarray, epochs: int, seed: int):
    """Standardization and Pegasos training one step at a time (the
    package's former loop): ``(weights, bias, means, scales)``."""
    means = x.mean(axis=0)
    scales = x.std(axis=0)
    scales = np.where(scales < ZERO_VARIANCE_EPS, 1.0, scales)
    xs = (x - means) / scales

    rng = np.random.default_rng(seed)
    w = np.zeros(FEATURE_COUNT)
    bias = 0.0
    t = 0
    for _ in range(epochs):
        for index in rng.permutation(len(xs)):
            t += 1
            eta = 1.0 / (L2_LAMBDA * t)
            xi = xs[index]
            yi = y[index]
            w *= 1.0 - eta * L2_LAMBDA
            if yi * (float(np.dot(w, xi)) + bias) < 1.0:
                w += eta * yi * xi
                bias += eta * yi
    return w, bias, means, scales


def reference_score_matrix(model, lexicon, source_sentences, target_sentences) -> np.ndarray:
    """Similarity matrix one cell at a time: features, margin, sigmoid."""
    matrix = np.empty((len(source_sentences), len(target_sentences)))
    for i, source in enumerate(source_sentences):
        for j, target in enumerate(target_sentences):
            features = extract_features(source, target, lexicon)
            matrix[i, j] = score_from_margin(model, model.margin(features))
    return matrix


def reference_exp(x: np.ndarray) -> np.ndarray:
    """libm ``exp`` element-wise, one ``math.exp`` call per value: it maps
    over a ``memoryview`` of the values, which yields each as a Python
    float without first building a list of them (``tolist``)."""
    return np.fromiter(map(math.exp, memoryview(x.ravel())), np.float64, x.size).reshape(x.shape)


def score_from_margin(model, margin: float) -> float:
    """The calibrated score of one margin, the per-cell definition that
    ``SimilarityModel.scores_from_margins`` computes element-wise."""
    z = model.sigmoid_a * margin + model.sigmoid_b
    if z >= 0:
        p = math.exp(-z) / (1.0 + math.exp(-z)) if z < 700 else 0.0
    else:
        p = 1.0 / (1.0 + math.exp(z)) if z > -700 else 1.0
    return min(max(p, 0.0), 1.0)


def reference_mine_pair(model, lexicon, pair, config, engine="nw"):
    """Mine one document pair down to (score, i, j) index triples: score
    it alone, align it with its own engine call and keep the matches at or
    above the threshold (no blocks, no shared fills)."""
    scores = build_score_matrix(model, lexicon, pair.source.sentences, pair.target.sentences)
    alignment = ENGINES[engine](scores, config)
    return filter_by_threshold(scores, alignment, config.threshold)


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
            alignment = ENGINES[engine](matrix, trial_config)
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


def reference_read_rows(path, count):
    """``corpus.read_columns`` one line at a time, as ``(line number,
    fields)`` rows, from the file's bytes: each line (split at LF, CRLF or
    CR) is decoded alone, so an error is raised exactly when its line is
    reached."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"{path}: line {lineno}: not UTF-8 (byte {raw[exc.start]:#04x} "
                f"at column {exc.start + 1}: {exc.reason})"
            ) from None
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != count:
            raise ValueError(
                f"{path}: line {lineno}: expected {count} tab-separated fields, got {len(fields)}"
            )
        yield lineno, fields


def lexicon_from_table(table) -> Lexicon:
    """The lexicon of a table of rows, ``{source: {target: p}}``: its
    rows in the table's order, each row's entries in the row's order,
    empty rows and entries of probability 0 included."""
    rows = table.values()
    targets: defaultdict[str, int] = defaultdict(count().__next__)
    return Lexicon(
        {s: row for row, s in enumerate(table)},
        targets,
        np.repeat(np.arange(len(rows)), [len(row) for row in rows]),
        np.array([targets[t] for row in rows for t in row], dtype=np.intp),
        np.array([p for row in rows for p in row.values()], dtype=np.float64),
    )


def source_tokens(lexicon) -> list[str]:
    """The source tokens of a lexicon, in row order: the first ids."""
    return list(islice(lexicon.compiled().ids, lexicon._sources))


def table_of(lexicon) -> dict[str, dict[str, float]]:
    """The table ``lexicon_from_table`` would build ``lexicon`` from:
    every source row in row order, empty rows and entries of probability
    0 included.  Two lexicons are equal when their tables are."""
    table: dict[str, dict[str, float]] = {s: {} for s in source_tokens(lexicon)}
    for s, t, p in lexicon.items():
        table[s][t] = p
    return table


def prob(lexicon, source_token: str, target_token: str) -> float:
    """``p(target | source)``, 0 for a pair the lexicon does not hold."""
    return lexicon.translations(source_token).get(target_token, 0.0)


def reference_merge_title_lexicon(lexicon, titles):
    """``lexicon.merge_title_lexicon`` on dict rows: every row of the
    lexicon is copied into a dict, each single-token title pair updates
    and renormalizes its row, and a new lexicon is built from all rows."""
    table = table_of(lexicon)
    skipped = 0
    for source_title, target_title in titles:
        source_tokens = tokenize(source_title)
        target_tokens = tokenize(target_title)
        if len(source_tokens) != 1 or len(target_tokens) != 1:
            skipped += 1
            continue
        s, t = source_tokens[0], target_tokens[0]
        row = table.setdefault(s, {})
        row[t] = max(row.get(t, 0.0), 0.5)
        total = sum(row.values())
        table[s] = {token: p / total for token, p in row.items()}
    return lexicon_from_table(table), skipped


def reference_number_by_first_touch(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lexicon._number_by_first_touch`` through ``np.unique`` (the
    package's former numbering): the id of each key, numbering distinct
    keys in order of first appearance, and the distinct keys in that
    order."""
    unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first_touch = np.argsort(first)
    renumber = np.empty_like(by_first_touch)
    renumber[by_first_touch] = np.arange(len(by_first_touch))
    return renumber[inverse], unique_keys[by_first_touch]


def reference_write_lexicon(lexicon, path) -> None:
    """``lexicon.write_lexicon`` by one sort of the entries on (source,
    -probability, target) tuples, written a line at a time (the package's
    former writer)."""
    entries = sorted(lexicon.items(), key=lambda e: (e[0], -e[2], e[1]))
    with open(path, "w", encoding="utf-8") as handle:
        for s, t, p in entries:
            handle.write(f"{s}\t{t}\t{p:.6f}\n")


def reference_sentence_error(doc_id: str, sentences: tuple[str, ...]) -> str | None:
    """The message ``Document`` raises for the first bad sentence of
    ``sentences``, found one sentence at a time, or None."""
    for index, sentence in enumerate(sentences):
        if not sentence.strip():
            return f"document {doc_id} contains an empty sentence"
        if "\t" in sentence or "\n" in sentence or "\r" in sentence:
            return f"document {doc_id}: sentence {index} contains a tab or line break"
    return None


def reference_load_corpus(corpus_dir) -> list[DocumentPair]:
    """``corpus.load_corpus`` with every sentence row checked on its own
    and kept by (topic, side) and index, from rows read one line at a
    time (``reference_read_rows``): the same pairs, or the same first
    error, whatever the row order."""
    pairs_path = os.path.join(corpus_dir, "pairs.tsv")
    sentences_path = os.path.join(corpus_dir, "sentences.tsv")
    # (topic, side) -> sentence index -> (line number, sentence)
    sentences: dict[tuple[str, str], dict[int, tuple[int, str]]] = {}
    for lineno, (topic_id, side, index, sentence) in reference_read_rows(sentences_path, 4):
        if side not in ("src", "tgt"):
            raise ValueError(
                f"{sentences_path}: line {lineno}: side must be 'src' or 'tgt', got {side!r}"
            )
        position = integer(index)
        if position is None or position < 0:
            raise ValueError(
                f"{sentences_path}: line {lineno}: sentence index must be a "
                f"non-negative integer, got {index!r}"
            )
        if not sentence.strip():
            raise ValueError(f"{sentences_path}: line {lineno}: sentence is empty")
        rows = sentences.setdefault((unescape_field(topic_id), side), {})
        if position in rows:
            raise ValueError(
                f"{sentences_path}: line {lineno}: duplicate sentence index {position} "
                f"(first on line {rows[position][0]})"
            )
        rows[position] = (lineno, sentence)
    for (topic_id, side), rows in sentences.items():
        for expected, position in enumerate(sorted(rows)):
            if position != expected:
                raise ValueError(
                    f"{sentences_path}: line {rows[position][0]}: sentence index {position} "
                    f"of {topic_id!r} {side} leaves index {expected} missing"
                )

    def doc_sentences(topic_id: str, side: str) -> tuple[str, ...]:
        rows = sentences.get((topic_id, side), {})
        return tuple(rows[position][1] for position in range(len(rows)))

    pairs: list[DocumentPair] = []
    first_line: dict[str, int] = {}
    for lineno, fields in reference_read_rows(pairs_path, 7):
        topic_id = unescape_field(fields[0])
        if topic_id in first_line:
            raise ValueError(
                f"{pairs_path}: line {lineno}: duplicate topic {topic_id!r} "
                f"(first on line {first_line[topic_id]})"
            )
        first_line[topic_id] = lineno
        try:
            source = Document(fields[1], fields[2], unescape_field(fields[3]),
                              doc_sentences(topic_id, "src"))
            target = Document(fields[4], fields[5], unescape_field(fields[6]),
                              doc_sentences(topic_id, "tgt"))
            pairs.append(DocumentPair(topic_id=topic_id, source=source, target=target))
        except ValueError as exc:
            raise ValueError(f"{pairs_path}: line {lineno}: {exc}") from None
    orphans = [
        (min(lineno for lineno, _ in rows.values()), topic_id)
        for (topic_id, _), rows in sentences.items()
        if topic_id not in first_line
    ]
    if orphans:
        lineno, topic_id = min(orphans)
        raise ValueError(f"{sentences_path}: line {lineno}: topic {topic_id!r} has no pair row")
    return pairs
