"""Sentence-pair similarity: features, linear classifier, calibration.

A sentence pair is summarized by six features (length ratios, lexicon
coverage in both directions, translation confidence, surface overlap).
A linear max-margin classifier is trained on them with hinge loss and
L2 regularization, and the signed distance to its hyperplane is mapped
into [0, 1] by a Platt-style sigmoid fit, so scores behave like the
probability that the two sentences translate each other.

``extract_features`` describes one pair and serves training.
``score_matrix`` scores every sentence pair of a document pair at once,
computing each feature for a block of pairs with array operations; its
scores are bit-identical to scoring each pair through
``extract_features``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .lexicon import Lexicon
from .text import tokenize

FEATURE_COUNT = 6
MODEL_FORMAT_VERSION = 1

# Hinge-loss training constants.
L2_LAMBDA = 1e-3
ZERO_VARIANCE_EPS = 1e-12

_RATIO_CAP = 4.0

# Cells per array block in ``score_matrix``: large enough that per-block
# Python overhead is small, small enough that the block's temporaries
# stay in cache and off the peak memory of long document pairs.
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
    token_set: frozenset[str]


def profile_sentence(sentence: str) -> SentenceProfile:
    tokens = tokenize(sentence)
    if not tokens:
        raise ValueError(f"untokenizable sentence: {sentence!r}")
    return SentenceProfile(text=sentence, tokens=tuple(tokens), token_set=frozenset(tokens))


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
    token_ratio = _clip_ratio(len(source.tokens), len(target.tokens))
    char_ratio = _clip_ratio(len(source.text), len(target.text))

    covered = 0
    best_prob_sum = 0.0
    for s in source.tokens:
        best = 0.0
        for t, p in lexicon.translations(s).items():
            if t in target.token_set and p > best:
                best = p
        if best > 0.0:
            covered += 1
            best_prob_sum += best
    source_coverage = covered / len(source.tokens)
    mean_best_prob = best_prob_sum / covered if covered else 0.0

    reach: set[str] = set()
    for s in source.token_set:
        reach.update(t for t, p in lexicon.translations(s).items() if p > 0.0)
    covered_target = 0
    for t in target.tokens:
        if t in reach:
            covered_target += 1
    target_coverage = covered_target / len(target.tokens)

    shared = len(source.token_set & target.token_set)
    overlap = shared / max(len(source.token_set), len(target.token_set))

    return [token_ratio, source_coverage, target_coverage, mean_best_prob, char_ratio, overlap]


def _padded(rows: Sequence[Sequence], fill, dtype) -> np.ndarray:
    """Rows of unequal length as one array, padded on the right with ``fill``."""
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=dtype)
    for r, row in enumerate(rows):
        out[r, : len(row)] = row
    return out


def _marks(rows: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """Boolean rows, True at the listed ids, with one more column never set."""
    marks = np.zeros((len(rows), width + 1), dtype=bool)
    row_of_id = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    marks[row_of_id, list(chain.from_iterable(rows))] = True
    return marks


def _lengths(profiles: Sequence[SentenceProfile]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.array([len(p.tokens) for p in profiles]),
        np.array([len(p.text) for p in profiles]),
        np.array([len(p.token_set) for p in profiles]),
    )


def score_matrix(
    model: "SimilarityModel",
    lexicon: Lexicon,
    sources: Sequence[SentenceProfile],
    targets: Sequence[SentenceProfile],
) -> np.ndarray:
    """Score of every source profile against every target profile.

    Equal, bit for bit, to ``score_from_margin(margin(extract_features(s, t)))``
    per cell, but computed for row blocks of at most ``BLOCK_CELLS``
    cells with array operations.  Once per call, target tokens get ids,
    and each source token gets its target ids reachable through the
    lexicon and its best present translation probability per target
    sentence.  Every feature keeps the per-cell arithmetic: probability
    sums add token positions in sentence order, counts are integer sums
    and ratios single divisions.  Ids are padded with -1, which indexes
    a trailing entry that is never set.
    """
    m = len(targets)
    vocab: dict[str, int] = {}
    # Padded id arrays are stored as [position, sentence], so that the
    # block sums below add contiguous rows.
    target_positions = _padded(
        [[vocab.setdefault(t, len(vocab)) for t in tp.tokens] for tp in targets], -1, np.intp
    ).T.copy()
    type_lists = [[vocab[t] for t in tp.token_set] for tp in targets]
    target_types = _padded(type_lists, -1, np.intp).T.copy()
    present = np.ascontiguousarray(_marks(type_lists, len(vocab)).T)  # [target id, sentence]

    reach: dict[str, list[int]] = {}
    probs: dict[str, list[float]] = {}
    for sp in sources:
        for s in sp.token_set:
            if s not in reach:
                found = [
                    (vocab[t], p)
                    for t, p in lexicon.translations(s).items()
                    if p > 0.0 and t in vocab
                ]
                reach[s] = [k for k, _ in found]
                probs[s] = [p for _, p in found]

    # best[row, j]: highest p(t|s) over the translations t of a source
    # token present in target sentence j, by max (exact in any order) over
    # the token's translations; the last row stays 0 for tokens with none.
    # Tokens are sorted by translation count so chunks pad little.
    translated = sorted((s for s in reach if reach[s]), key=lambda s: len(reach[s]))
    best_row = {s: r for r, s in enumerate(translated)}
    best = np.zeros((len(translated) + 1, m))
    translation_ids = _padded([reach[s] for s in translated], -1, np.intp)
    translation_probs = _padded([probs[s] for s in translated], 0.0, np.float64)[:, :, None]
    step = max(1, BLOCK_CELLS // m)
    for a in range(0, len(translated), step):
        b = min(a + step, len(translated))
        width = len(reach[translated[b - 1]])
        hit = present[translation_ids[a:b, :width]]
        best[a:b] = np.where(hit, translation_probs[a:b, :width], 0.0).max(axis=1)

    source_positions = _padded(
        [[best_row.get(s, -1) for s in sp.tokens] for sp in sources], -1, np.intp
    )
    # Per source sentence: the target ids its tokens reach, and its own
    # tokens that also occur on the target side.
    reach_marks = _marks(
        [[k for s in sp.token_set for k in reach[s]] for sp in sources], len(vocab)
    )
    own_marks = _marks(
        [[vocab[s] for s in sp.token_set if s in vocab] for sp in sources], len(vocab)
    )
    s_tokens, s_chars, s_types = (v[:, None] for v in _lengths(sources))
    t_tokens, t_chars, t_types = _lengths(targets)

    result = np.empty((len(sources), m))
    rows_per_block = max(1, BLOCK_CELLS // m)
    for start in range(0, len(sources), rows_per_block):
        rows = slice(start, start + rows_per_block)
        block_tokens = s_tokens[rows]
        prob_sum = np.zeros((len(block_tokens), m))
        covered = np.zeros((len(block_tokens), m), dtype=np.int64)
        for column in source_positions[rows, : block_tokens.max()].T:
            token_best = best[column]
            prob_sum += token_best
            covered += token_best > 0.0
        reached = reach_marks[rows][:, target_positions].sum(axis=1)
        shared = own_marks[rows][:, target_types].sum(axis=1)

        features = [
            np.minimum(block_tokens / t_tokens, _RATIO_CAP),
            covered / block_tokens,
            reached / t_tokens,
            prob_sum / np.maximum(covered, 1),
            np.minimum(s_chars[rows] / t_chars, _RATIO_CAP),
            shared / np.maximum(s_types[rows], t_types),
        ]
        result[rows] = model.scores_from_margins(model.margin(features))
    return result


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


def train_classifier(
    positives: Sequence[tuple[str, str]],
    negatives: Sequence[tuple[str, str]],
    lexicon: Lexicon,
    epochs: int,
    seed: int,
) -> SimilarityModel:
    """Train the standardized linear classifier and its calibration.

    Deterministic given (data, epochs, seed): example order per epoch
    comes from a seeded generator, and every numeric step is fixed.
    """
    if not positives or not negatives:
        raise ValueError("need non-empty positive and negative training sets")
    if len(positives) + len(negatives) < 2:
        raise ValueError("need at least 2 training examples")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    rows = []
    labels = []
    for source_sentence, target_sentence in positives:
        rows.append(extract_features(source_sentence, target_sentence, lexicon))
        labels.append(1.0)
    for source_sentence, target_sentence in negatives:
        rows.append(extract_features(source_sentence, target_sentence, lexicon))
        labels.append(-1.0)
    x = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)

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
) -> float:
    """Fraction of examples on the correct side of the hyperplane."""
    correct = 0
    for source_sentence, target_sentence in positives:
        if model.margin(extract_features(source_sentence, target_sentence, lexicon)) > 0:
            correct += 1
    for source_sentence, target_sentence in negatives:
        if model.margin(extract_features(source_sentence, target_sentence, lexicon)) <= 0:
            correct += 1
    return correct / (len(positives) + len(negatives))


def similarity(
    model: SimilarityModel, source_sentence: str, target_sentence: str, lexicon: Lexicon
) -> float:
    """Calibrated translation-likelihood score in [0, 1]."""
    features = extract_features(source_sentence, target_sentence, lexicon)
    return model.score_from_margin(model.margin(features))
