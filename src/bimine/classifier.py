"""Sentence-pair similarity: features, linear classifier, calibration.

A sentence pair is summarized by six features (length ratios, lexicon
coverage in both directions, translation confidence, surface overlap).
A linear max-margin classifier is trained on them with hinge loss and
L2 regularization, and the signed distance to its hyperplane is mapped
into [0, 1] by a Platt-style sigmoid fit, so scores behave like the
probability that the two sentences translate each other.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
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

_VECTOR_FIELDS = ("weights", "feature_means", "feature_scales")
_SCALAR_FIELDS = ("bias", "sigmoid_a", "sigmoid_b")


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


def reachable_targets(source: SentenceProfile, lexicon: Lexicon) -> frozenset[str]:
    """All target tokens some source token can translate to."""
    reach: set[str] = set()
    for s in source.token_set:
        reach.update(t for t, p in lexicon.translations(s).items() if p > 0.0)
    return frozenset(reach)


def features_from_profiles(
    source: SentenceProfile,
    target: SentenceProfile,
    lexicon: Lexicon,
    source_reach: frozenset[str] | None = None,
) -> list[float]:
    # source_reach lets a caller scoring one source sentence against many
    # targets hoist the reachable-target set out of the pair loop.
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

    if source_reach is None:
        source_reach = reachable_targets(source, lexicon)
    covered_target = 0
    for t in target.tokens:
        if t in source_reach:
            covered_target += 1
    target_coverage = covered_target / len(target.tokens)

    shared = len(source.token_set & target.token_set)
    overlap = shared / max(len(source.token_set), len(target.token_set))

    return [token_ratio, source_coverage, target_coverage, mean_best_prob, char_ratio, overlap]


def extract_features(
    source_sentence: str, target_sentence: str, lexicon: Lexicon
) -> list[float]:
    """Six-feature description of a sentence pair.

    Order: token-length ratio (capped at 4), source lexicon coverage,
    target lexicon coverage, mean best translation probability over
    covered source tokens, character-length ratio (capped at 4), and
    fraction of shared identical tokens.
    """
    return features_from_profiles(
        profile_sentence(source_sentence), profile_sentence(target_sentence), lexicon
    )


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
        """Signed distance from the decision hyperplane."""
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
