"""Sentence-pair similarity: features, linear classifier, calibration.

A sentence pair is summarized by six features (length ratios, lexicon
coverage in both directions, translation confidence, surface overlap).
A linear max-margin classifier is trained on them with hinge loss and
L2 regularization, and the signed distance to its hyperplane is mapped
into [0, 1] by a Platt-style sigmoid fit, so scores behave like the
probability that the two sentences translate each other.

Features are computed for many sentence pairs at once by one feature
stage (``_features``) on token ids: ``encode`` tokenizes each sentence
once into ids of the lexicon compiled into arrays (``Lexicon.compiled``).
Consecutive whole document pairs are grouped into blocks of at most
``BLOCK_CELLS`` cells (a larger pair is a block of its own); a block is
encoded by one ``encode`` call, and each feature of a block is a few
array passes against the lexicon, with work that follows each pair's
own sentences and tokens.  The cells of a block are taken in runs of
whole source sentences of at most ``4 * BLOCK_CELLS`` cells of a grid
as wide as the run's widest pair, so the rows of a long pair are read
whole and a wide pair among tiny ones stays bounded.  ``score_pairs``
adds the margin and the sigmoid; ``training_features`` runs the stage
over the training examples of one encoded run (``tokenizable_pairs``),
the examples of each source sentence as one 1xk pair.
``extract_features`` is its one-cell case.
Features and scores are bit-identical to the per-pair definition that
``tests/oracles.py`` keeps.

Training is a function of arrays: ``train_classifier(x, y, epochs,
seed)`` and ``training_accuracy(model, x, y)`` take the feature rows
``x`` and their +-1 labels ``y``.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .lexicon import CompiledLexicon, Lexicon
from .text import tokenize

FEATURE_COUNT = 6
MODEL_FORMAT_VERSION = 1

# Hinge-loss training constants.
L2_LAMBDA = 1e-3
ZERO_VARIANCE_EPS = 1e-12

_RATIO_CAP = 4.0

# Cells per block of document pairs in ``score_pairs``; a row run of
# ``_features`` holds at most four times as many cells of its grid.  Large
# enough that per-block Python overhead is small, small enough that the
# temporaries stay in cache and off the peak memory of long document pairs.
BLOCK_CELLS = 2048

_VECTOR_FIELDS = ("weights", "feature_means", "feature_scales")
_SCALAR_FIELDS = ("bias", "sigmoid_a", "sigmoid_b")


def _exp(x: np.ndarray) -> np.ndarray:
    """libm ``exp`` element-wise: ``np.exp`` rounds some inputs differently,
    which would change scores in the last bit.  ``math.exp`` maps over a
    ``memoryview`` of the values, which yields each as a Python float
    without first building a list of them (``tolist``)."""
    return np.fromiter(map(math.exp, memoryview(x.ravel())), np.float64, x.size).reshape(x.shape)


class Encoded(NamedTuple):
    """A run of sentences as token ids, in CSR form (``encode``):
    sentence ``i`` has ``chars[i]`` characters and ``tokens[i]`` ids,
    which follow the ids of the sentences before it.  Ids below
    ``len(compiled.ids)`` are the lexicon's; other tokens get ids past
    them, numbered by first occurrence in the run, so that equal strings
    of one run, and only they, have equal ids."""

    ids: np.ndarray
    tokens: np.ndarray
    chars: np.ndarray


def encode(compiled: CompiledLexicon, sentences: Sequence[str]) -> Encoded:
    """Each of ``sentences`` tokenized once, as ids of ``compiled``; a
    sentence without tokens has a count of 0."""
    ids = compiled.ids
    words = [tokenize(sentence) for sentence in sentences]
    flat = list(chain.from_iterable(words))
    token_ids = np.fromiter(map(ids.get, flat, repeat(-1)), np.intp, len(flat))
    outside: dict[str, int] = {}
    for k in np.flatnonzero(token_ids < 0).tolist():
        token_ids[k] = outside.setdefault(flat[k], len(ids) + len(outside))
    tokens = np.fromiter(map(len, words), np.intp, len(words))
    return Encoded(token_ids, tokens, np.fromiter(map(len, sentences), np.intp, len(sentences)))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(start, start + count)`` for each (start, count), concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - (ends - counts), counts)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Offset of each run of ``counts`` in their concatenation."""
    return np.cumsum(counts) - counts


def _first_of_each(keys: np.ndarray) -> np.ndarray:
    """True where a sorted array starts a run of equal values."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` without its slower hash path)."""
    keys = np.sort(keys)
    return keys[_first_of_each(keys)]


def _lookup(
    keys: np.ndarray, starts: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First item and number of items of each query's key, by one binary
    search per query: ``keys`` are sorted distinct values, and key ``k``
    stands for the items ``starts[k]:starts[k + 1]``.  A query without an
    equal key has no items."""
    place = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    hits = np.where(keys[place] == queries, starts[place + 1] - starts[place], 0)
    return starts[place], hits


def _join(
    keys: np.ndarray, starts: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (query, item) index pair of ``_lookup``, expanded: the work
    follows the hits."""
    first, hits = _lookup(keys, starts, queries)
    return np.repeat(np.arange(len(queries)), hits), _ranges(first, hits)


def runs(sizes: Sequence[int], cap: int) -> Iterator[slice]:
    """Consecutive runs of items whose sizes total at most ``cap``; an
    item larger than ``cap`` is a run of its own."""
    ends = np.cumsum(sizes).tolist()
    start = 0
    while start < len(ends):
        stop = max(start + 1, bisect_right(ends, (ends[start - 1] if start else 0) + cap))
        yield slice(start, stop)
        start = stop


def grid_runs(widths: np.ndarray, cap: int) -> Iterator[slice]:
    """Consecutive runs of items whose count times their largest width is
    at most ``cap``; an item wider than ``cap`` is a run of its own."""
    start = 0
    while start < len(widths):
        window = widths[start : start + cap]  # a run of at most cap items of width >= 1
        grid = np.maximum.accumulate(window) * np.arange(1, len(window) + 1)
        stop = start + max(1, int(np.searchsorted(grid, cap, side="right")))
        yield slice(start, stop)
        start = stop


def pair_blocks(shapes: Sequence[tuple[int, int]]) -> Iterator[slice]:
    """Runs of consecutive whole pairs of at most ``BLOCK_CELLS`` cells in
    total, given each pair's (sources, targets) shape; a larger pair is a
    run of its own."""
    return runs([n * m for n, m in shapes], BLOCK_CELLS)


def _features(
    compiled: CompiledLexicon,
    sentences: Encoded,
    source: np.ndarray,
    target: np.ndarray,
    n: np.ndarray,
    m: np.ndarray,
) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """The six features of every cell of a block of pairs, in row blocks.

    Pair ``k`` has ``n[k]`` sources and ``m[k]`` targets, which
    ``source`` and ``target`` number in ``sentences``, pair after pair;
    ids need be equal for equal tokens only within a pair.  Cells are
    numbered flat: pair after pair, each pair's sources x targets row by
    row, so no pair is padded to another's width.  Yields ``(cells,
    features)`` for runs of whole source sentences (``grid_runs``) whose
    count times their widest pair's width is at most ``4 * BLOCK_CELLS``
    (or one wider sentence).  Each source sentence meets only its own
    pair's targets: the counts come from sorted joins on (pair, token)
    keys, whose hits are counted into cells with ``np.bincount``
    (integers, so exact); the reach reuses the hits that the join of the
    best table found for each (sentence, translation).  Each source
    position's row of the best table is read whole, as wide as the run's
    widest pair, into a (sentences x widest) grid that is then cut to each
    pair's width; probability sums add token positions in sentence order
    (a sentence that has no token at a rank is skipped there, not added
    0.0), and ratios are single divisions, as in the one-pair definition.
    """
    first_token = _offsets(sentences.tokens)
    s_tokens, t_tokens = sentences.tokens[source], sentences.tokens[target]
    s_chars, t_chars = sentences.chars[source], sentences.chars[target]
    source_token = sentences.ids[_ranges(first_token[source], s_tokens)]
    target_token = sentences.ids[_ranges(first_token[target], t_tokens)]
    width = max(len(compiled.ids), int(sentences.ids.max()) + 1)  # keys: pair * width + id
    source_of = np.repeat(np.arange(len(source)), s_tokens)  # per source position
    pair_of_source = np.repeat(np.arange(len(n)), n)  # per source sentence
    slot_of_target = np.arange(len(target)) - np.repeat(_offsets(m), m)  # column in its pair
    first_target = _offsets(m)  # per pair
    first_position = _offsets(s_tokens)  # per source sentence

    # The distinct tokens ("types") of each target sentence, sorted by
    # (pair, token) key and then sentence, with how often each occurs in
    # its sentence; a join on (pair, token) finds the run of types of
    # that key, one per target sentence of the pair that holds the token.
    target_of = np.repeat(np.arange(len(target)), t_tokens)
    occurrences = np.sort(
        (np.repeat(np.arange(len(n)), m)[target_of] * width + target_token) * len(target)
        + target_of
    )
    type_start = np.flatnonzero(_first_of_each(occurrences))
    type_count = np.diff(type_start, append=len(occurrences))
    type_key, type_sentence = np.divmod(occurrences[type_start], len(target))
    type_cell = slot_of_target[type_sentence]  # column of the type's sentence in its pair
    key_start = np.flatnonzero(_first_of_each(type_key))
    keys, key_start = type_key[key_start], np.append(key_start, len(type_key))
    t_types = np.bincount(type_sentence, minlength=len(target))

    # Rows: the distinct (pair, token) keys of the source tokens.
    row_keys, row_of_position = np.unique(
        pair_of_source[source_of] * width + source_token, return_inverse=True
    )
    row_pair, row_token = np.divmod(row_keys, width)

    # Each row's translations with p > 0 that occur in a target sentence
    # of its own pair; best[row_start[r] + j] is the highest p(t|s) of row
    # r over those in column j of its pair (max is exact in any order).
    # The hits are expanded in runs of at most 4 * BLOCK_CELLS, so memory
    # stays bounded however many target sentences share a token.
    row_id = np.minimum(row_token, len(compiled.ids))  # the empty row for outside tokens
    first = compiled.indptr[row_id]
    count = compiled.indptr[row_id + 1] - first
    entry = _ranges(first, count)
    translation = compiled.targets[entry]
    candidate_row = np.repeat(np.arange(len(row_keys)), count)
    low, hits = _lookup(keys, key_start, row_pair[candidate_row] * width + translation)
    found = hits > 0
    candidate_row, translation, low, hits = (
        v[found] for v in (candidate_row, translation, low, hits)
    )
    prob = compiled.probs[entry][found]
    row_width = m[row_pair]
    row_start = _offsets(row_width)
    # Zeros past the last row, so that a window as wide as the widest pair
    # fits at every row's start.
    best = np.zeros(int(row_start[-1] + row_width[-1] + row_width.max()))
    for run in runs(hits, 4 * BLOCK_CELLS):
        np.maximum.at(
            best,
            np.repeat(row_start[candidate_row[run]], hits[run])
            + type_cell[_ranges(low[run], hits[run])],
            np.repeat(prob[run], hits[run]),
        )
    # The found translations of each row start at found_start[row].
    found_count = np.bincount(candidate_row, minlength=len(row_keys))
    found_start = _offsets(found_count)
    # Per source position: its rank in its sentence and its row in best.
    rank_of = np.arange(len(source_of)) - first_position[source_of]
    row_at = row_start[row_of_position]

    cells_of = m[pair_of_source]  # per source sentence
    first_cell = _offsets(cells_of)
    for run in grid_runs(cells_of, 4 * BLOCK_CELLS):
        a, b = run.start, run.stop
        positions = slice(first_position[a], first_position[b - 1] + s_tokens[b - 1])
        sentence = source_of[positions] - a  # per position, in the run
        cell_start = first_cell[a:b] - first_cell[a]  # per sentence, in the run
        cells = int(cell_start[-1] + cells_of[b - 1])

        # The distinct tokens of each sentence, as (sentence, row), and
        # the target types they equal.
        own_sentence, own_row = np.divmod(
            _distinct(sentence * len(row_keys) + row_of_position[positions]), len(row_keys)
        )
        s_types = np.bincount(own_sentence, minlength=b - a)
        query, hit = _join(keys, key_start, row_keys[own_row])
        shared = np.bincount(cell_start[own_sentence[query]] + type_cell[hit], minlength=cells)

        # The target positions that a found translation of one of the
        # sentence's tokens reaches: each distinct (sentence, translation)
        # once, with the run of target types that the best table's join
        # found for that translation, weighted by the type's occurrences.
        reach_count = found_count[own_row]
        reach = _ranges(found_start[own_row], reach_count)  # found translations
        reach_key = np.repeat(own_sentence, reach_count) * width + translation[reach]
        order = np.argsort(reach_key)
        order = order[_first_of_each(reach_key[order])]  # one per (sentence, translation)
        pick = reach[order]
        hit = _ranges(low[pick], hits[pick])
        reached = np.bincount(
            np.repeat(cell_start[reach_key[order] // width], hits[pick]) + type_cell[hit],
            weights=type_count[hit],
            minlength=cells,
        )

        # covered and prob_sum: rank by rank in sentence order, the best
        # row of each sentence's token at that rank, read whole into a
        # (sentences x widest) grid.  Sentences go longest first, so the
        # sentences that have a token at rank r are the prefix active[r].
        lengths = s_tokens[a:b]
        slot = np.empty(b - a, np.intp)
        slot[np.argsort(-lengths, kind="stable")] = np.arange(b - a)  # grid row of each sentence
        active = b - a - np.cumsum(np.bincount(lengths))[:-1]
        position_best = np.zeros((len(active), b - a), np.intp)
        position_best[rank_of[positions], slot[sentence]] = row_at[positions]
        widest = int(cells_of[a:b].max())
        # rows[i] is best[i : i + widest] as one item of 8 * widest bytes
        # (the windows of ``sliding_window_view``), so that a gather of
        # rows takes numpy's one-dimensional path whatever the width.
        rows = np.ndarray(len(best) - widest + 1, (np.void, 8 * widest), best, 0, best.strides)
        prob_sum = np.zeros((b - a) * widest)
        covered = np.zeros((b - a) * widest, dtype=np.int64)
        for row_of_sentence, k in zip(position_best, active.tolist()):
            token_best = rows[row_of_sentence[:k]].view(np.float64)  # k rows, flat
            prob_sum[: k * widest] += token_best
            covered[: k * widest] += token_best > 0.0

        # Back in sentence order, each row cut to its pair's width.
        cell_source = np.repeat(np.arange(b - a), cells_of[a:b])
        cell_slot = np.arange(cells) - cell_start[cell_source]
        grid_cell = slot[cell_source] * widest + cell_slot
        prob_sum, covered = prob_sum[grid_cell], covered[grid_cell]
        cell_target = first_target[pair_of_source[cell_source + a]] + cell_slot
        row_tokens = s_tokens[a:b][cell_source]
        yield slice(int(first_cell[a]), int(first_cell[a]) + cells), [
            np.minimum(row_tokens / t_tokens[cell_target], _RATIO_CAP),
            covered / row_tokens,
            reached / t_tokens[cell_target],
            prob_sum / np.maximum(covered, 1),
            np.minimum(s_chars[a:b][cell_source] / t_chars[cell_target], _RATIO_CAP),
            shared / np.maximum(s_types[cell_source], t_types[cell_target]),
        ]


def score_pairs(
    model: "SimilarityModel",
    lexicon: Lexicon,
    pairs: Sequence[tuple[Sequence[str], Sequence[str]]],
) -> list[np.ndarray | ValueError]:
    """Score matrix of each (source sentences, target sentences) pair, or
    the ``ValueError`` of its first sentence without tokens, sources
    first: ``source sentence i: untokenizable sentence: '...'``.

    Every cell is ``scores_from_margins(margin(features))`` of the pair's
    six features, which equals the per-cell definition,
    ``tests/oracles.score_from_margin`` of the cell's margin, bit for
    bit.  Each block of ``pair_blocks`` is encoded by one ``encode``
    call, so ids past the lexicon are numbered per block (``_features``
    keys every join on pair and id), and its pairs that tokenize are
    scored together; a block's matrices are C-contiguous views of one
    array.  No side may be empty.
    """
    compiled = lexicon.compiled()
    shapes = [(len(sources), len(targets)) for sources, targets in pairs]
    results: list[np.ndarray | ValueError] = []
    for block in pair_blocks(shapes):
        sentences = [sentence for pair in pairs[block] for side in pair for sentence in side]
        encoded = encode(compiled, sentences)
        n, m = np.array(shapes[block]).T
        first = _offsets(n + m)
        outcomes: list = [None] * len(n)
        # Reversed, so that each pair keeps the error of its first sentence.
        for k in reversed(np.flatnonzero(encoded.tokens == 0).tolist()):
            p = bisect_right(first, k) - 1
            i = k - first[p]
            side, i = ("source", i) if i < n[p] else ("target", i - n[p])
            error = f"{side} sentence {i}: untokenizable sentence: {sentences[k]!r}"
            outcomes[p] = ValueError(error)
        kept = [p for p, outcome in enumerate(outcomes) if outcome is None]
        if kept:
            n, m, first = n[kept], m[kept], first[kept]
            source, target = _ranges(first, n), _ranges(first + n, m)
            scores = np.empty(int(np.dot(n, m)))
            for cells, features in _features(compiled, encoded, source, target, n, m):
                scores[cells] = model.scores_from_margins(model.margin(features))
            for p, part in zip(kept, np.split(scores, np.cumsum(n * m)[:-1])):
                outcomes[p] = part.reshape(shapes[block.start + p])
        results += outcomes
    return results


def extract_features(
    source_sentence: str, target_sentence: str, lexicon: Lexicon
) -> list[float]:
    """Six-feature description of a sentence pair: the one-cell case of
    the block feature stage.

    Order: token-length ratio (capped at 4), source lexicon coverage,
    target lexicon coverage, mean best translation probability over
    covered source tokens, character-length ratio (capped at 4), and
    fraction of shared identical tokens.
    """
    pair = [(source_sentence, target_sentence)]
    _, distinct, encoded = tokenizable_pairs(pair, lexicon)
    return training_features(pair, lexicon, distinct, encoded)[0].tolist()


@dataclass(frozen=True)
class SimilarityModel:
    """Linear classifier weights plus sigmoid calibration."""

    weights: tuple[float, ...]
    bias: float
    sigmoid_a: float
    sigmoid_b: float
    feature_means: tuple[float, ...]
    feature_scales: tuple[float, ...]

    def __post_init__(self) -> None:
        # A non-finite parameter would score every cell NaN or 1.0, so
        # reject it here rather than mine garbage.
        for name in _VECTOR_FIELDS:
            values = getattr(self, name)
            if len(values) != FEATURE_COUNT:
                raise ValueError(f"{name} must have length {FEATURE_COUNT}")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite")
        for name in _SCALAR_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if any(scale <= 0.0 for scale in self.feature_scales):
            raise ValueError("feature scales must be positive (feature_scales)")
        if self.sigmoid_a >= 0.0:
            raise ValueError("sigmoid_a must be negative")

    def margin(self, features: Sequence[float]) -> float:
        """Signed distance from the decision hyperplane.

        Also element-wise over six equally shaped feature arrays, with
        the same operation order per element.
        """
        d = self.bias
        for k in range(FEATURE_COUNT):
            d += self.weights[k] * (features[k] - self.feature_means[k]) / self.feature_scales[k]
        return d

    def scores_from_margins(self, margins: np.ndarray) -> np.ndarray:
        """The Platt sigmoid ``1 / (1 + exp(a * margin + b))`` of each
        margin, clipped to [0, 1]: ``exp`` is libm's, taken of ``-|z|``
        so that it never overflows, and ``|z| >= 700`` saturates to 0 or
        1.  Bit for bit the per-cell definition,
        ``tests/oracles.score_from_margin``, applied element-wise."""
        z = self.sigmoid_a * margins + self.sigmoid_b
        upper = z >= 0
        e = _exp(np.where(upper, -z, z))
        p = np.where(
            upper,
            np.where(z < 700, e / (1.0 + e), 0.0),
            np.where(z > -700, 1.0 / (1.0 + e), 1.0),
        )
        return np.minimum(np.maximum(p, 0.0), 1.0)

    def to_dict(self) -> dict:
        return {
            "version": MODEL_FORMAT_VERSION,
            "weights": list(self.weights),
            "bias": self.bias,
            "sigmoid_a": self.sigmoid_a,
            "sigmoid_b": self.sigmoid_b,
            "feature_means": list(self.feature_means),
            "feature_scales": list(self.feature_scales),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimilarityModel":
        if not isinstance(data, dict):
            raise ValueError("model must be a JSON object")
        version = data.get("version")
        # ``True == 1``, so the type is checked as well as the value.
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        fields: dict = {}
        for name in _VECTOR_FIELDS + _SCALAR_FIELDS:
            try:
                value = data[name]
                if name in _VECTOR_FIELDS:
                    if not isinstance(value, list):
                        raise TypeError(name)
                    fields[name] = tuple(_json_number(v) for v in value)
                else:
                    fields[name] = _json_number(value)
            except (KeyError, TypeError, OverflowError):
                raise ValueError(f"{name} is missing or not numeric") from None
        return cls(**fields)


def _json_number(value: object) -> float:
    """``value`` as a float if it is a JSON number; a JSON boolean, string,
    array or object raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def save_model(model: SimilarityModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_model(path: str | os.PathLike) -> SimilarityModel:
    with open(path, encoding="utf-8") as handle:
        try:
            return SimilarityModel.from_dict(json.load(handle))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def make_negative_pairs(
    positives: Sequence[tuple[str, str]], seed: int
) -> list[tuple[str, str]]:
    """One mismatched pair per positive, by a seeded shuffle of targets."""
    n = len(positives)
    if n < 2:
        raise ValueError("need at least 2 positive pairs to derive negatives")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    negatives = []
    for i in range(n):
        j = int(perm[i])
        if j == i:  # then perm[(i + 1) % n] != i, as perm is a permutation
            j = int(perm[(i + 1) % n])
        negatives.append((positives[i][0], positives[j][1]))
    return negatives


def _fit_platt(margins: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Maximum-likelihood sigmoid fit of p(y=1 | margin).

    Newton iteration with backtracking line search on the calibration
    log-likelihood, using the usual smoothed targets so the fit stays
    finite on separable data.
    """
    prior1 = float(np.sum(labels > 0))
    prior0 = float(len(labels) - prior1)
    hi_target = (prior1 + 1.0) / (prior1 + 2.0)
    lo_target = 1.0 / (prior0 + 2.0)
    targets = np.where(labels > 0, hi_target, lo_target)

    max_iterations = 100
    min_step = 1e-10
    sigma = 1e-12
    eps = 1e-5

    a = 0.0
    b = math.log((prior0 + 1.0) / (prior1 + 1.0))

    def objective(a_val: float, b_val: float) -> float:
        z = a_val * margins + b_val
        # log(1 + e^z) evaluated stably on both branches
        pos = z >= 0
        val = np.where(
            pos,
            targets * z + np.log1p(np.exp(-np.clip(z, 0, None))),
            (targets - 1.0) * z + np.log1p(np.exp(np.clip(z, None, 0))),
        )
        return float(np.sum(val))

    fval = objective(a, b)
    for _ in range(max_iterations):
        z = a * margins + b
        p = np.where(z >= 0, np.exp(-np.clip(z, 0, None)), 1.0)
        q = np.where(z >= 0, 1.0, np.exp(np.clip(z, None, 0)))
        denom = p + q
        p = p / denom
        q = q / denom
        d2 = p * q
        h11 = float(np.dot(margins * margins, d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.dot(margins, d2))
        d1 = targets - p
        g1 = float(np.dot(margins, d1))
        g2 = float(np.sum(d1))
        if abs(g1) < eps and abs(g2) < eps:
            break
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db
        step = 1.0
        while step >= min_step:
            new_a = a + step * da
            new_b = b + step * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * step * gd:
                a, b, fval = new_a, new_b, new_f
                break
            step /= 2.0
        else:
            break
    return a, b


def tokenizable_pairs(
    pairs: Sequence[tuple[str, str]], lexicon: Lexicon
) -> tuple[list[tuple[str, str]], list[str], Encoded]:
    """The pairs whose sides both have tokens, then the distinct sentences
    of ``pairs`` and their one run of ``encode``, which
    ``training_features`` takes: each sentence is tokenized once."""
    distinct = list(dict.fromkeys(chain.from_iterable(pairs)))
    encoded = encode(lexicon.compiled(), distinct)
    tokens = dict(zip(distinct, encoded.tokens.tolist()))
    return [(s, t) for s, t in pairs if tokens[s] and tokens[t]], distinct, encoded


def training_features(
    examples: Sequence[tuple[str, str]],
    lexicon: Lexicon,
    distinct: Sequence[str],
    encoded: Encoded,
) -> np.ndarray:
    """Feature rows of ``examples``, in order.

    The examples run through the block feature stage over one run of
    sentences: ``distinct`` and their ``encoded`` ids, as
    ``tokenizable_pairs`` returns them, which must hold every example's
    sentences.  The examples that share a source sentence are one 1xk
    pair of it and their targets, so each source's translations are
    joined once; a cell's features do not depend on its pair.  An example
    sentence without tokens raises ``ValueError``.
    """
    index = dict(zip(distinct, range(len(distinct))))
    numbers = np.array([(index[s], index[t]) for s, t in examples], dtype=np.intp).reshape(-1, 2)
    if not encoded.tokens[numbers].all():
        first = numbers.flat[np.argmin(encoded.tokens[numbers])]
        raise ValueError(f"untokenizable sentence: {distinct[first]!r}")
    order = np.argsort(numbers[:, 0], kind="stable")  # the examples of each source together
    source, target = numbers[order].T
    heads = np.flatnonzero(_first_of_each(source))
    m = np.diff(heads, append=len(source))
    x = np.empty((len(examples), FEATURE_COUNT))
    first_cell = _offsets(m)
    for block in pair_blocks([(1, k) for k in m.tolist()]):
        cell = first_cell[block.start]
        targets = target[cell : cell + m[block].sum()]
        ones = np.ones(block.stop - block.start, np.intp)
        for cells, features in _features(
            lexicon.compiled(), encoded, source[heads[block]], targets, ones, m[block]
        ):
            x[order[cell + cells.start : cell + cells.stop]] = np.column_stack(features)
    return x


# ``_pegasos`` checks runs of at least this many steps; a run without a
# violation is followed by one four times longer, one with a violation
# by one half as long.
_SHORTEST_RUN = 8


def _pegasos(xs: np.ndarray, y: np.ndarray, epochs: int, seed: int) -> tuple[np.ndarray, float]:
    """Weights and bias of Pegasos hinge-loss training with L2
    regularization, one seeded permutation of the examples per epoch.

    Step t shrinks ``w`` by ``1 - eta * lambda`` (``eta = 1 / (lambda t)``)
    and, if the example's margin is below 1, adds ``eta * y * x``.  Most
    steps only shrink, so the checks are taken in runs of steps: the run
    scales ``w`` step by step with ``np.multiply.accumulate`` (one rounding
    per step, as ``w *= s``) and takes every margin with ``np.vecdot``
    (the ``np.dot`` kernel, row by row).  The first violating step is
    updated with the same operands as a one-step loop, and the next run
    starts after it, so the result equals that loop bit for bit.
    """
    rng = np.random.default_rng(seed)
    w = np.zeros(FEATURE_COUNT)
    bias = 0.0
    length = _SHORTEST_RUN
    for epoch in range(epochs):
        order = rng.permutation(len(xs))
        x, label = xs[order], y[order]
        t = np.arange(epoch * len(xs) + 1, (epoch + 1) * len(xs) + 1, dtype=np.float64)
        eta = 1.0 / (L2_LAMBDA * t)
        shrink = 1.0 - eta * L2_LAMBDA
        start = 0
        while start < len(order):
            stop = min(start + length, len(order))
            scaled = np.empty((stop - start + 1, FEATURE_COUNT))
            scaled[0] = w
            scaled[1:] = shrink[start:stop, None]
            scaled = np.multiply.accumulate(scaled, axis=0)[1:]
            margins = label[start:stop] * (np.vecdot(scaled, x[start:stop]) + bias)
            violated = np.flatnonzero(margins < 1.0)
            if len(violated) == 0:
                w = scaled[-1]
                start, length = stop, 4 * length
                continue
            k = int(violated[0])
            step = start + k
            w = scaled[k] + eta[step] * label[step] * x[step]
            bias += eta[step] * label[step]
            start, length = step + 1, max(_SHORTEST_RUN, length // 2)
    return w, bias


def train_classifier(x: np.ndarray, y: np.ndarray, epochs: int, seed: int) -> SimilarityModel:
    """Train the standardized linear classifier and its calibration on
    feature rows ``x`` (``training_features``) with labels ``y``: +1 for a
    translation pair, -1 for a mismatched one.

    Deterministic given (data, epochs, seed): example order per epoch
    comes from a seeded generator, and every numeric step is fixed.
    """
    if not (np.any(y > 0) and np.any(y < 0)):
        raise ValueError("need positive and negative training examples")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    means = x.mean(axis=0)
    scales = x.std(axis=0)
    scales = np.where(scales < ZERO_VARIANCE_EPS, 1.0, scales)
    xs = (x - means) / scales

    w, bias = _pegasos(xs, y, epochs, seed)

    train_margins = xs @ w + bias
    sigmoid_a, sigmoid_b = _fit_platt(train_margins, y)
    if sigmoid_a >= 0.0:
        # Degenerate calibration data; keep the score monotone in the margin.
        sigmoid_a = -1e-12

    return SimilarityModel(
        weights=tuple(float(v) for v in w),
        bias=float(bias),
        sigmoid_a=float(sigmoid_a),
        sigmoid_b=float(sigmoid_b),
        feature_means=tuple(float(v) for v in means),
        feature_scales=tuple(float(v) for v in scales),
    )


def training_accuracy(model: SimilarityModel, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of feature rows ``x`` on the side of the hyperplane that
    their label in ``y`` names: margin > 0 for +1, <= 0 for -1."""
    margins = model.margin(x.T)
    return np.count_nonzero(np.where(y > 0, margins > 0, margins <= 0)) / len(y)

