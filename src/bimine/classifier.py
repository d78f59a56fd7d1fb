"""Sentence-pair similarity: features, linear classifier, calibration.

A sentence pair is summarized by six features (length ratios, lexicon
coverage in both directions, translation confidence, surface overlap).
A linear max-margin classifier is trained on them with hinge loss and
L2 regularization, and the signed distance to its hyperplane is mapped
into [0, 1] by a Platt-style sigmoid fit, so scores behave like the
probability that the two sentences translate each other.

Features are computed for many sentence pairs at once by one feature
stage (``_features``): consecutive whole document pairs are grouped into
blocks of at most ``BLOCK_CELLS`` cells (a larger pair is a block of its
own), and each feature of a block is a few array passes against the
lexicon compiled once into arrays (``Lexicon.compiled``), with work that
follows each pair's own sentences and tokens.  ``score_pairs`` adds the
margin and the sigmoid; ``training_features`` runs the stage over the
training examples as 1x1 pairs.  ``extract_features`` and
``similarity`` are its one-cell cases.  Features and scores are
bit-identical to the per-pair definition that ``tests/oracles.py``
keeps.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterator, Sequence

import numpy as np

from .lexicon import CompiledLexicon, Lexicon
from .text import tokenize

FEATURE_COUNT = 6
MODEL_FORMAT_VERSION = 1

# Hinge-loss training constants.
L2_LAMBDA = 1e-3
ZERO_VARIANCE_EPS = 1e-12

_RATIO_CAP = 4.0

# Cells per block of document pairs in ``score_pairs``, and per row block
# of a larger pair: large enough that per-block Python overhead is small,
# small enough that the block's temporaries stay in cache and off the
# peak memory of long document pairs.
BLOCK_CELLS = 2048

_VECTOR_FIELDS = ("weights", "feature_means", "feature_scales")
_SCALAR_FIELDS = ("bias", "sigmoid_a", "sigmoid_b")


def _exp(x: np.ndarray) -> np.ndarray:
    """libm ``exp`` element-wise: ``np.exp`` rounds some inputs differently,
    which would change scores in the last bit."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


@dataclass(frozen=True)
class SentenceProfile:
    """Cached per-sentence data reused across many pair scorings."""

    text: str
    tokens: tuple[str, ...]


def profile_sentence(sentence: str) -> SentenceProfile:
    tokens = tokenize(sentence)
    if not tokens:
        raise ValueError(f"untokenizable sentence: {sentence!r}")
    return SentenceProfile(text=sentence, tokens=tuple(tokens))


def _lengths(profiles: Sequence[SentenceProfile]) -> tuple[np.ndarray, np.ndarray]:
    """Token and character counts of each profile."""
    return (
        np.array([len(p.tokens) for p in profiles]),
        np.array([len(p.text) for p in profiles]),
    )


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


def _runs(sizes: Sequence[int], cap: int) -> Iterator[slice]:
    """Consecutive runs of items whose sizes total at most ``cap``; an
    item larger than ``cap`` is a run of its own."""
    ends = np.cumsum(sizes).tolist()
    start = 0
    while start < len(ends):
        stop = max(start + 1, bisect_right(ends, (ends[start - 1] if start else 0) + cap))
        yield slice(start, stop)
        start = stop


ProfilePair = tuple[Sequence[SentenceProfile], Sequence[SentenceProfile]]


def pair_blocks(shapes: Sequence[tuple[int, int]]) -> Iterator[slice]:
    """Runs of consecutive whole pairs of at most ``BLOCK_CELLS`` cells in
    total, given each pair's (sources, targets) shape; a larger pair is a
    run of its own."""
    return _runs([n * m for n, m in shapes], BLOCK_CELLS)


def _features(
    compiled: CompiledLexicon, pairs: Sequence[ProfilePair]
) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """The six features of every cell of a block of pairs, in row blocks.

    Cells are numbered flat: pair after pair, each pair's sources x
    targets row by row, so no pair is padded to another's width.  Yields
    ``(cells, features)`` for runs of whole source sentences of at most
    ``BLOCK_CELLS`` cells (or one longer sentence).  Each source sentence
    meets only its own pair's targets: the counts come from sorted joins
    on (pair, token) keys, whose hits are counted into cells with
    ``np.bincount`` (integers, so exact).  Probability sums add token
    positions in sentence order and ratios are single divisions, as in
    the one-pair definition.
    """
    # Sentences of all pairs are numbered through the block, sources and
    # targets apart.  Tokens get block ids 0..width-1 shared by both
    # sides, so that equal strings compare equal.
    sources = [sp for side, _ in pairs for sp in side]
    targets = [tp for _, side in pairs for tp in side]
    n = np.array([len(side) for side, _ in pairs])
    m = np.array([len(side) for _, side in pairs])
    source_tokens = [t for sp in sources for t in sp.tokens]
    tokens = source_tokens + [t for tp in targets for t in tp.tokens]
    ids = compiled.ids
    lexicon_id = np.fromiter(map(ids.get, tokens, repeat(-1)), np.intp, len(tokens))
    outside: dict[str, int] = {}  # tokens outside the lexicon get ids past it
    for k in np.flatnonzero(lexicon_id < 0).tolist():
        lexicon_id[k] = outside.setdefault(tokens[k], len(ids) + len(outside))
    # Block ids number the block's distinct tokens in lexicon id order.
    seen = np.zeros(len(ids) + len(outside), dtype=bool)
    seen[lexicon_id] = True
    block_ids = np.flatnonzero(seen)
    token = (np.cumsum(seen) - 1)[lexicon_id]
    source_token, target_token = token[: len(source_tokens)], token[len(source_tokens) :]
    width = len(block_ids)
    in_lexicon = int(np.searchsorted(block_ids, len(ids)))  # block ids of lexicon tokens
    block_id = np.full(len(ids), width, dtype=np.intp)  # lexicon id -> block id
    block_id[block_ids[:in_lexicon]] = np.arange(in_lexicon)
    s_tokens, s_chars = _lengths(sources)
    t_tokens, t_chars = _lengths(targets)
    source_of = np.repeat(np.arange(len(sources)), s_tokens)  # per source position
    pair_of_source = np.repeat(np.arange(len(pairs)), n)  # per source sentence
    slot_of_target = np.arange(len(targets)) - np.repeat(_offsets(m), m)  # column in its pair
    first_target = _offsets(m)  # per pair
    first_position = _offsets(s_tokens)  # per source sentence

    # The distinct tokens ("types") of each target sentence, sorted by
    # (pair, token) key and then sentence, with how often each occurs in
    # its sentence; a join on (pair, token) finds the run of types of
    # that key, one per target sentence of the pair that holds the token.
    target_of = np.repeat(np.arange(len(targets)), t_tokens)
    occurrences = np.sort(
        (np.repeat(np.arange(len(pairs)), m)[target_of] * width + target_token) * len(targets)
        + target_of
    )
    type_start = np.flatnonzero(_first_of_each(occurrences))
    type_count = np.diff(type_start, append=len(occurrences))
    type_key, type_sentence = np.divmod(occurrences[type_start], len(targets))
    type_cell = slot_of_target[type_sentence]  # column of the type's sentence in its pair
    key_start = np.flatnonzero(_first_of_each(type_key))
    keys, key_start = type_key[key_start], np.append(key_start, len(type_key))
    t_types = np.bincount(type_sentence, minlength=len(targets))

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
    row_id = np.minimum(block_ids[row_token], len(ids))
    first = compiled.indptr[row_id]
    count = compiled.indptr[row_id + 1] - first
    entry = _ranges(first, count)
    translation = block_id[compiled.targets[entry]]
    present = translation < width
    candidate_row = np.repeat(np.arange(len(row_keys)), count)[present]
    translation = translation[present]
    low, hits = _lookup(keys, key_start, row_pair[candidate_row] * width + translation)
    found = hits > 0
    candidate_row, translation, low, hits = (
        v[found] for v in (candidate_row, translation, low, hits)
    )
    prob = compiled.probs[entry][present][found]
    row_width = m[row_pair]
    row_start = _offsets(row_width)
    zero_row = int(row_start[-1] + row_width[-1])  # start of an all-zero row
    best = np.zeros(zero_row + int(row_width.max()))
    for run in _runs(hits, 4 * BLOCK_CELLS):
        np.maximum.at(
            best,
            np.repeat(row_start[candidate_row[run]], hits[run])
            + type_cell[_ranges(low[run], hits[run])],
            np.repeat(prob[run], hits[run]),
        )
    # The found translations of each row start at found_start[row].
    found_count = np.bincount(candidate_row, minlength=len(row_keys))
    found_start = _offsets(found_count)

    cells_of = m[pair_of_source]  # per source sentence
    first_cell = _offsets(cells_of)
    for run in _runs(cells_of, BLOCK_CELLS):
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
        # joined on (pair, token), weighted by the type's occurrences.
        reach_count = found_count[own_row]
        reach_sentence, reach_token = np.divmod(
            _distinct(
                np.repeat(own_sentence, reach_count) * width
                + translation[_ranges(found_start[own_row], reach_count)]
            ),
            width,
        )
        query, hit = _join(
            keys, key_start, pair_of_source[reach_sentence + a] * width + reach_token
        )
        reached = np.bincount(
            cell_start[reach_sentence[query]] + type_cell[hit],
            weights=type_count[hit],
            minlength=cells,
        )

        # covered and prob_sum: position by position in sentence order,
        # the best of each position's row against every cell's target.
        cell_source = np.repeat(np.arange(b - a), cells_of[a:b])
        cell_slot = np.arange(cells) - cell_start[cell_source]
        position_best = np.full((int(s_tokens[a:b].max()), b - a), zero_row)
        rank = np.arange(positions.start, positions.stop) - first_position[sentence + a]
        position_best[rank, sentence] = row_start[row_of_position[positions]]
        prob_sum = np.zeros(cells)
        covered = np.zeros(cells, dtype=np.int64)
        for row_of_sentence in position_best:
            token_best = best[row_of_sentence[cell_source] + cell_slot]
            prob_sum += token_best
            covered += token_best > 0.0

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
    model: "SimilarityModel", lexicon: Lexicon, pairs: Sequence[ProfilePair]
) -> list[np.ndarray]:
    """Score matrix of each (source profiles, target profiles) pair.

    Every cell equals ``score_from_margin(margin(features))`` of the
    pair's six features, bit for bit.  Pairs are scored together in the
    blocks of ``pair_blocks``, so a short pair costs a share of a few
    array passes rather than passes of its own; the matrices of a block
    are C-contiguous views of one array.  Both sides of every pair must
    be non-empty.
    """
    compiled = lexicon.compiled()
    pairs = list(pairs)
    shapes = [(len(sources), len(targets)) for sources, targets in pairs]
    matrices: list[np.ndarray] = []
    for block in pair_blocks(shapes):
        scores = np.empty(sum(n * m for n, m in shapes[block]))
        for cells, features in _features(compiled, pairs[block]):
            scores[cells] = model.scores_from_margins(model.margin(features))
        offset = 0
        for n, m in shapes[block]:
            matrices.append(scores[offset : offset + n * m].reshape(n, m))
            offset += n * m
    return matrices


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
    pair = ([profile_sentence(source_sentence)], [profile_sentence(target_sentence)])
    ((_, features),) = _features(lexicon.compiled(), [pair])
    return [float(feature[0]) for feature in features]


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

    def score_from_margin(self, margin: float) -> float:
        z = self.sigmoid_a * margin + self.sigmoid_b
        if z >= 0:
            p = math.exp(-z) / (1.0 + math.exp(-z)) if z < 700 else 0.0
        else:
            p = 1.0 / (1.0 + math.exp(z)) if z > -700 else 1.0
        return min(max(p, 0.0), 1.0)

    def scores_from_margins(self, margins: np.ndarray) -> np.ndarray:
        """``score_from_margin`` element-wise, with the same libm ``exp``."""
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
        if version != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version: {version!r}")
        fields: dict = {}
        for name in _VECTOR_FIELDS + _SCALAR_FIELDS:
            try:
                value = data[name]
                fields[name] = (
                    tuple(float(v) for v in value) if name in _VECTOR_FIELDS else float(value)
                )
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{name} is missing or not numeric") from None
        return cls(**fields)


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
        if j == i:
            j = int(perm[(i + 1) % n])
            if j == i:  # two fixed points in a row cannot happen for n >= 2
                j = (i + 1) % n
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


def training_features(
    positives: Sequence[tuple[str, str]],
    negatives: Sequence[tuple[str, str]],
    lexicon: Lexicon,
) -> np.ndarray:
    """Feature rows of every training example, positives first.

    Each example is a 1x1 pair of the block feature stage, and each
    distinct sentence is profiled once.
    """
    examples = [*positives, *negatives]
    profiles = {
        text: profile_sentence(text) for text in dict.fromkeys(chain.from_iterable(examples))
    }
    pairs = [([profiles[s]], [profiles[t]]) for s, t in examples]
    compiled = lexicon.compiled()
    x = np.empty((len(pairs), FEATURE_COUNT))
    for block in pair_blocks([(1, 1)] * len(pairs)):
        for cells, features in _features(compiled, pairs[block]):
            x[block.start + cells.start : block.start + cells.stop] = np.column_stack(features)
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


def train_classifier(
    positives: Sequence[tuple[str, str]],
    negatives: Sequence[tuple[str, str]],
    lexicon: Lexicon,
    epochs: int,
    seed: int,
    features: np.ndarray | None = None,
) -> SimilarityModel:
    """Train the standardized linear classifier and its calibration.

    Deterministic given (data, epochs, seed): example order per epoch
    comes from a seeded generator, and every numeric step is fixed.
    ``features`` may pass in ``training_features`` of the same examples,
    so that a caller who also wants ``training_accuracy`` extracts them
    once.
    """
    if not positives or not negatives:
        raise ValueError("need non-empty positive and negative training sets")
    if len(positives) + len(negatives) < 2:
        raise ValueError("need at least 2 training examples")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    x = training_features(positives, negatives, lexicon) if features is None else features
    y = np.asarray([1.0] * len(positives) + [-1.0] * len(negatives), dtype=np.float64)

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


def training_accuracy(
    model: SimilarityModel,
    positives: Sequence[tuple[str, str]],
    negatives: Sequence[tuple[str, str]],
    lexicon: Lexicon,
    features: np.ndarray | None = None,
) -> float:
    """Fraction of examples on the correct side of the hyperplane.

    ``features``, if given, are the examples' ``training_features``.
    """
    x = training_features(positives, negatives, lexicon) if features is None else features
    margins = model.margin(x.T)
    correct = np.count_nonzero(margins[: len(positives)] > 0) + np.count_nonzero(
        margins[len(positives) :] <= 0
    )
    return int(correct) / (len(positives) + len(negatives))


def similarity(
    model: SimilarityModel, source_sentence: str, target_sentence: str, lexicon: Lexicon
) -> float:
    """Calibrated translation-likelihood score in [0, 1]: the one-cell
    case of ``score_pairs``."""
    pair = ([profile_sentence(source_sentence)], [profile_sentence(target_sentence)])
    return float(score_pairs(model, lexicon, [pair])[0][0, 0])
