"""Sentence-pair similarity: features, linear classifier, calibration.

A sentence pair is summarized by six features (length ratios, lexicon
coverage in both directions, translation confidence, surface overlap).
A linear max-margin classifier is trained on them with hinge loss and
L2 regularization, and the signed distance to its hyperplane is mapped
into [0, 1] by a Platt-style sigmoid fit, so scores behave like the
probability that the two sentences translate each other.

``extract_features`` describes one pair and serves training.
``score_pairs`` scores every sentence pair of many document pairs: it
groups consecutive whole document pairs into blocks of at most
``BLOCK_CELLS`` cells (a larger pair is a block of its own) and computes
each feature for a whole block with array operations, against the
lexicon compiled once into arrays (``Lexicon.compiled``).  Short pairs
thus share a few array passes instead of paying for passes of their
own.  ``score_matrix`` is its one-pair case.  Scores are bit-identical
to scoring each sentence pair through ``extract_features``.
"""

from __future__ import annotations

import json
import math
import os
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
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


def _clip_ratio(numerator: float, denominator: float) -> float:
    return min(numerator / denominator, _RATIO_CAP)


def extract_features(
    source_sentence: str, target_sentence: str, lexicon: Lexicon
) -> list[float]:
    """Six-feature description of a sentence pair.

    Order: token-length ratio (capped at 4), source lexicon coverage,
    target lexicon coverage, mean best translation probability over
    covered source tokens, character-length ratio (capped at 4), and
    fraction of shared identical tokens.
    """
    source = profile_sentence(source_sentence)
    target = profile_sentence(target_sentence)
    source_set, target_set = set(source.tokens), set(target.tokens)
    token_ratio = _clip_ratio(len(source.tokens), len(target.tokens))
    char_ratio = _clip_ratio(len(source.text), len(target.text))

    covered = 0
    best_prob_sum = 0.0
    for s in source.tokens:
        best = 0.0
        for t, p in lexicon.translations(s).items():
            if t in target_set and p > best:
                best = p
        if best > 0.0:
            covered += 1
            best_prob_sum += best
    source_coverage = covered / len(source.tokens)
    mean_best_prob = best_prob_sum / covered if covered else 0.0

    reach: set[str] = set()
    for s in source_set:
        reach.update(t for t, p in lexicon.translations(s).items() if p > 0.0)
    covered_target = 0
    for t in target.tokens:
        if t in reach:
            covered_target += 1
    target_coverage = covered_target / len(target.tokens)

    shared = len(source_set & target_set)
    overlap = shared / max(len(source_set), len(target_set))

    return [token_ratio, source_coverage, target_coverage, mean_best_prob, char_ratio, overlap]


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


def _marks(sentences: int, width: int, sentence: np.ndarray, token: np.ndarray) -> np.ndarray:
    """Boolean ``[sentence, token]`` table, True at the given pairs."""
    marks = np.zeros(sentences * width, dtype=bool)
    marks[sentence * width + token] = True
    return marks.reshape(sentences, width)


def _sums_by_sentence(
    marks: np.ndarray, tokens: np.ndarray, starts: np.ndarray, local: np.ndarray
) -> np.ndarray:
    """``out[r, j]``: how many tokens of sentence ``local[r, j]`` are True
    in ``marks[r]``.

    Sentence ``k`` has the tokens ``tokens[starts[k]:starts[k + 1]]``;
    ``local`` equal to ``len(starts) - 1`` stands for padding and reads
    0.  Each row is summed over every sentence with one gather and one
    ``np.add.reduceat``; the sums are integers, so exact.
    """
    counts = np.zeros((len(marks), len(starts)), dtype=np.int64)
    np.add.reduceat(
        marks[:, tokens[starts[0] : starts[-1]]],
        starts[:-1] - starts[0],
        axis=1,
        dtype=np.int64,
        out=counts[:, :-1],
    )
    return np.take_along_axis(counts, local, axis=1)


def _best_present(
    shape: tuple[int, int],
    row: np.ndarray,
    key: np.ndarray,
    prob: np.ndarray,
    occurrence_key: np.ndarray,
    occurrence_slot: np.ndarray,
) -> np.ndarray:
    """``best[r, j]``: the highest ``prob`` of the entries of row ``r``
    whose ``key`` equals that of an occurrence in slot ``j``, else 0.

    A sorted join: the occurrences are sorted by key once, each entry
    finds its run of equal keys by one binary search, and the matches
    are expanded and folded in with ``np.maximum.at`` (max is exact in
    any order) in runs of at most ``BLOCK_CELLS`` matches, so memory
    stays bounded however many occurrences share a key.
    """
    by_key = np.argsort(occurrence_key, kind="stable")
    key_start = np.flatnonzero(_first_of_each(occurrence_key[by_key]))
    keys = occurrence_key[by_key[key_start]]
    key_count = np.diff(key_start, append=len(by_key))
    place = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    low = key_start[place]
    hits = np.where(keys[place] == key, key_count[place], 0)
    best = np.zeros(shape)
    for run in _runs(hits, BLOCK_CELLS):
        occurrence = by_key[_ranges(low[run], hits[run])]
        match = np.repeat(np.arange(run.start, run.stop), hits[run])
        np.maximum.at(
            best.reshape(-1), row[match] * shape[1] + occurrence_slot[occurrence], prob[match]
        )
    return best


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


def score_pairs(
    model: "SimilarityModel", lexicon: Lexicon, pairs: Sequence[ProfilePair]
) -> list[np.ndarray]:
    """Score matrix of each (source profiles, target profiles) pair.

    Every cell equals ``score_from_margin(margin(extract_features(s, t)))``
    bit for bit.  Pairs are scored together in the blocks of
    ``pair_blocks``, so a short pair costs a share of a few array passes
    rather than passes of its own.  Both sides of every pair must be
    non-empty.
    """
    compiled = lexicon.compiled()
    pairs = list(pairs)
    matrices: list[np.ndarray] = []
    for block in pair_blocks([(len(sources), len(targets)) for sources, targets in pairs]):
        matrices.extend(_score_block(model, compiled, pairs[block]))
    return matrices


def score_matrix(
    model: "SimilarityModel",
    lexicon: Lexicon,
    sources: Sequence[SentenceProfile],
    targets: Sequence[SentenceProfile],
) -> np.ndarray:
    """Score of every source profile against every target profile: the
    one-pair case of ``score_pairs``."""
    return score_pairs(model, lexicon, [(sources, targets)])[0]


def _score_block(
    model: "SimilarityModel", compiled: CompiledLexicon, pairs: Sequence[ProfilePair]
) -> list[np.ndarray]:
    # Sentences of all pairs are numbered through the block, sources and
    # targets apart.  Tokens get block ids 0..width-1 shared by both
    # sides, so that equal strings compare equal.
    sources = [sp for side, _ in pairs for sp in side]
    targets = [tp for _, side in pairs for tp in side]
    n = np.array([len(side) for side, _ in pairs])
    m = np.array([len(side) for _, side in pairs])
    columns = int(m.max())
    source_tokens = [t for sp in sources for t in sp.tokens]
    tokens = source_tokens + [t for tp in targets for t in tp.tokens]
    ids = compiled.ids
    lexicon_id = [ids.get(t, -1) for t in tokens]
    outside: dict[str, int] = {}  # tokens outside the lexicon get ids past it
    for k in [k for k, i in enumerate(lexicon_id) if i < 0]:
        lexicon_id[k] = outside.setdefault(tokens[k], len(ids) + len(outside))
    block_ids, token = np.unique(np.array(lexicon_id, dtype=np.intp), return_inverse=True)
    source_token, target_token = token[: len(source_tokens)], token[len(source_tokens) :]
    width = len(block_ids)
    s_tokens, s_chars = _lengths(sources)
    t_tokens, t_chars = _lengths(targets)
    source_of = np.repeat(np.arange(len(sources)), s_tokens)  # per source position
    target_of = np.repeat(np.arange(len(targets)), t_tokens)  # per target position
    pair_of_source = np.repeat(np.arange(len(pairs)), n)  # per source sentence
    pair_of_target = np.repeat(np.arange(len(pairs)), m)  # per target sentence
    slot_of_target = np.arange(len(targets)) - np.repeat(_offsets(m), m)  # column in its pair

    # Rows: the distinct (pair, source token) of the block, and their
    # translations with p > 0 that occur among the block's tokens.
    row_keys, row_of_position = np.unique(
        pair_of_source[source_of] * width + source_token, return_inverse=True
    )
    row_pair, row_token = np.divmod(row_keys, width)
    in_lexicon = int(np.searchsorted(block_ids, len(ids)))  # block ids of lexicon tokens
    block_id = np.full(len(ids), width, dtype=np.intp)  # lexicon id -> block id
    block_id[block_ids[:in_lexicon]] = np.arange(in_lexicon)
    row_id = np.minimum(block_ids[row_token], len(ids))
    first = compiled.indptr[row_id]
    count = compiled.indptr[row_id + 1] - first
    entry = _ranges(first, count)
    translation = block_id[compiled.targets[entry]]
    present = translation < width
    translation_row = np.repeat(np.arange(len(row_keys)), count)[present]
    translation = translation[present]
    translation_prob = compiled.probs[entry][present]

    # best[r, j]: highest p(t|s) over the translations t of row r present
    # in target sentence j of its pair; the last row stays 0.
    target_types = _distinct(target_of * width + target_token)
    type_sentence, type_token = np.divmod(target_types, width)
    t_types = np.bincount(type_sentence, minlength=len(targets))  # distinct tokens
    best = _best_present(
        (len(row_keys) + 1, columns),
        translation_row,
        row_pair[translation_row] * width + translation,
        translation_prob,
        pair_of_target[type_sentence] * width + type_token,
        slot_of_target[type_sentence],
    )

    # Per source sentence: the tokens its own tokens reach through the
    # lexicon, and its own tokens.
    row_count = np.bincount(translation_row, minlength=len(row_keys))
    reach_sentence, reach_row = np.divmod(
        _distinct(source_of * len(row_keys) + row_of_position), len(row_keys)
    )
    # A sentence's rows are its distinct tokens.
    s_types = np.bincount(reach_sentence, minlength=len(sources))
    reach = _marks(
        len(sources),
        width,
        np.repeat(reach_sentence, row_count[reach_row]),
        translation[_ranges(_offsets(row_count)[reach_row], row_count[reach_row])],
    )
    own = _marks(len(sources), width, source_of, source_token)

    # [position, source sentence] -> row of the token, padded with the
    # zero row.
    position_row = np.full((int(s_tokens.max()), len(sources)), len(row_keys), dtype=np.intp)
    position_row[np.arange(len(source_of)) - np.repeat(_offsets(s_tokens), s_tokens), source_of] = (
        row_of_position
    )
    # Where each target sentence's tokens, and distinct tokens, start.
    token_start = np.append(_offsets(t_tokens), len(target_token))
    type_start = np.append(_offsets(t_types), len(type_token))
    first_target = _offsets(m)
    # Padding cells read the target sentence just past their row block's
    # pairs, or an appended one with lengths of 1; their features are
    # finite and never used.
    t_tokens, t_chars, t_types = (np.append(v, 1) for v in (t_tokens, t_chars, t_types))

    # Features of every source sentence against the target sentences of
    # its pair, padded to ``columns``, in row blocks of at most
    # BLOCK_CELLS cells (or one longer row), with the per-cell arithmetic:
    # probability sums add token positions in sentence order, counts are
    # integer sums, ratios single divisions.
    result = np.empty((len(sources), columns))
    slots = np.arange(columns)
    step = max(1, BLOCK_CELLS // columns)
    for start in range(0, len(sources), step):
        stop = min(start + step, len(sources))
        rows = slice(start, stop)
        pair = pair_of_source[rows, None]
        # The row block's pairs own target sentences low..high-1.
        low = first_target[pair_of_source[start]]
        high = first_target[pair_of_source[stop - 1]] + m[pair_of_source[stop - 1]]
        local = np.where(slots < m[pair], first_target[pair] + slots - low, high - low)
        column = local + low
        row_tokens = s_tokens[rows, None]
        prob_sum = np.zeros(column.shape)
        covered = np.zeros(column.shape, dtype=np.int64)
        for token_rows in position_row[: row_tokens.max(), rows]:
            token_best = best[token_rows]
            prob_sum += token_best
            covered += token_best > 0.0
        reached = _sums_by_sentence(reach[rows], target_token, token_start[low : high + 1], local)
        shared = _sums_by_sentence(own[rows], type_token, type_start[low : high + 1], local)
        features = [
            np.minimum(row_tokens / t_tokens[column], _RATIO_CAP),
            covered / row_tokens,
            reached / t_tokens[column],
            prob_sum / np.maximum(covered, 1),
            np.minimum(s_chars[rows, None] / t_chars[column], _RATIO_CAP),
            shared / np.maximum(s_types[rows, None], t_types[column]),
        ]
        result[rows] = model.scores_from_margins(model.margin(features))

    return [
        np.ascontiguousarray(result[offset : offset + height, :length])
        for offset, height, length in zip(_offsets(n).tolist(), n.tolist(), m.tolist())
    ]


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
    """Feature rows of every training example, positives first."""
    rows = [extract_features(s, t, lexicon) for s, t in chain(positives, negatives)]
    return np.asarray(rows, dtype=np.float64).reshape(-1, FEATURE_COUNT)


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
    """Calibrated translation-likelihood score in [0, 1]."""
    features = extract_features(source_sentence, target_sentence, lexicon)
    return model.score_from_margin(model.margin(features))
