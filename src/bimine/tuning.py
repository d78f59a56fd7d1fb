"""Threshold and gap-penalty tuning against human-aligned samples.

Agreement between a machine alignment and a human reference is the
share of reference index pairs that the machine alignment also
produced.  Tuning then draws random (threshold, penalty) candidates
from a seeded generator -- always evaluating the configured defaults
first, so the result can never fall below them -- and keeps the
candidate with the best mean agreement.  Only the gap penalty and the
threshold change between trials, so the samples are scored once, in
one ``classifier.score_pairs`` call, and each is realigned for all
trials together, through the walker mining uses
(``align.kept_cells``, one lane per trial): bounded fills that keep
only each cell's moves, each trial's walked for its matched cells only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .align import MiningConfig, kept_cells
from .classifier import SimilarityModel, score_pairs
from .corpus import DocumentPair, integer, read_columns
from .lexicon import Lexicon

GAP_PENALTY_RANGE = (0.0, 5.0)


@dataclass(frozen=True)
class TuningSample:
    """A document pair together with human-judged parallel indices."""

    pair: DocumentPair
    reference: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        bad = _bad_reference_row(self.pair, self.reference)
        if bad is not None:
            raise ValueError(f"{self.pair.topic_id}: {bad[1]}")


def _bad_reference_row(
    pair: DocumentPair, reference: Sequence[tuple[int, int]]
) -> tuple[int, str] | None:
    """The position and error of the first index pair of ``reference`` that
    is out of range for ``pair`` or not after the one before it in both
    indices; ``None`` if there is none."""
    previous = (-1, -1)
    for k, (i, j) in enumerate(reference):
        if not (0 <= i < len(pair.source.sentences)):
            return k, f"reference source index {i} out of range"
        if not (0 <= j < len(pair.target.sentences)):
            return k, f"reference target index {j} out of range"
        if i <= previous[0] or j <= previous[1]:
            return k, "reference pairs must be monotone"
        previous = (i, j)
    return None


@dataclass(frozen=True)
class TuningResult:
    threshold: float
    gap_penalty: float
    agreement: float
    trials: int
    per_sample: tuple[float, ...]
    default_agreement: float  # trial 1 evaluates the defaults, recorded here


def alignment_agreement(
    candidate: Sequence[tuple[int, int]], reference: Sequence[tuple[int, int]]
) -> float:
    """Percentage of reference pairs matched by the candidate.

    Both lists are strictly increasing in both indices (references are
    checked on construction, mined alignments are monotone), so their
    longest common subsequence is exactly the set of shared pairs.  An
    empty candidate agrees fully with an empty reference and not at all
    otherwise.
    """
    shared = {tuple(pair) for pair in candidate} & {tuple(pair) for pair in reference}
    return _percent_shared(len(shared), len(candidate), len(reference))


def _percent_shared(shared: int, candidates: int, references: int) -> float:
    """``alignment_agreement`` from its counts: ``shared`` of the
    ``references`` reference pairs are among the ``candidates``."""
    if not references:
        return 100.0 if not candidates else 0.0
    return 100.0 * shared / references


def tune(
    model: SimilarityModel,
    lexicon: Lexicon,
    samples: Sequence[TuningSample],
    budget: int,
    seed: int,
    base_config: MiningConfig | None = None,
) -> TuningResult:
    """Seeded random search over (threshold, gap_penalty).

    Trial 1 always evaluates ``base_config`` unchanged; the remaining
    ``budget - 1`` trials draw threshold uniformly from [0, 1] and the
    gap penalty uniformly from [0, 5].  The best mean agreement wins,
    earliest trial on ties (``max`` keeps the first maximum), so a longer
    budget with the same seed can never return a worse result.

    All trials are drawn up front.  Every sample is then scored by one
    ``classifier.score_pairs`` call, as mining scores its blocks, and
    each is realigned for every trial by ``align.kept_cells``, one lane
    per trial, the walker mining uses.  A sample's trials share fills of
    at most ``kernels.BATCH_BYTES`` (all of them, for samples of a few
    thousand cells), and each trial's moves are walked in place for its
    matched cells only, so no ``Alignment`` is built per trial; its
    agreement counts those cells in the sample's reference set, which is
    built once per sample.  The first sample, in sample order, with a
    sentence without tokens fails the search as ``pair <id>: ...``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not samples:
        raise ValueError("no tuning samples")
    config = base_config if base_config is not None else MiningConfig()

    rng = np.random.default_rng(seed)
    trials = [(config.threshold, config.gap_penalty)]
    for _ in range(budget - 1):
        threshold = float(rng.uniform(0.0, 1.0))
        trials.append((threshold, float(rng.uniform(*GAP_PENALTY_RANGE))))

    # The similarity matrix of a sample does not depend on the searched
    # parameters, so score every sample once and realign per trial.
    pairs = [(sample.pair.source.sentences, sample.pair.target.sentences) for sample in samples]
    per_trial = [[0.0] * len(samples) for _ in trials]
    for s, (sample, matrix) in enumerate(zip(samples, score_pairs(model, lexicon, pairs))):
        if isinstance(matrix, ValueError):  # named as mining names a pair it cannot score
            raise ValueError(f"pair {sample.pair.topic_id}: {matrix}")
        reference = set(sample.reference)
        for trial, cells in enumerate(kept_cells([matrix], trials, config)):
            shared = sum((i, j) in reference for _, i, j in cells)
            per_trial[trial][s] = _percent_shared(shared, len(cells), len(sample.reference))

    means = [sum(agreements) / len(agreements) for agreements in per_trial]
    best = max(range(len(trials)), key=means.__getitem__)  # the first of equal means
    threshold, gap_penalty = trials[best]
    return TuningResult(
        threshold=threshold,
        gap_penalty=gap_penalty,
        agreement=means[best],
        trials=budget,
        per_sample=tuple(per_trial[best]),
        default_agreement=means[0],
    )


def read_reference(path: str | os.PathLike) -> dict[str, dict[tuple[int, int], int]]:
    """Read ``topic_id<TAB>source_index<TAB>target_index`` rows.

    Returns each topic's index pairs, in file order, mapped to the line
    that holds them.  Indices are 0-based.  A malformed row, a
    non-integer or negative index and a repeated (topic, source, target)
    row are rejected as ``path: line N: ...``.
    """
    reference: dict[str, dict[tuple[int, int], int]] = {}
    for numbers, columns in read_columns(path, 3):
        for lineno, topic_id, source_index, target_index in zip(numbers, *columns):
            pair = (integer(source_index), integer(target_index))
            if None in pair:
                raise ValueError(
                    f"{path}: line {lineno}: indices must be integers, got "
                    f"{source_index!r} and {target_index!r}"
                )
            if min(pair) < 0:
                raise ValueError(
                    f"{path}: line {lineno}: negative index {min(pair)} (indices are 0-based)"
                )
            rows = reference.setdefault(topic_id, {})
            if pair in rows:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate reference pair {topic_id!r} "
                    f"{pair[0]} {pair[1]} (first on line {rows[pair]})"
                )
            rows[pair] = lineno
    return reference


def read_samples(path: str | os.PathLike, pairs: Sequence[DocumentPair]) -> list[TuningSample]:
    """The tuning samples of the reference file at ``path``: each pair of
    ``pairs`` that it names, in corpus order, with its index pairs sorted.

    Besides the row errors of ``read_reference``, a topic that no pair
    has (at its first row), an index out of range and a row that breaks
    the monotone order once the rows are sorted are rejected as
    ``path: line N: ...``, and a file without rows as ``path: no
    reference rows``.
    """
    reference = read_reference(path)
    if not reference:
        raise ValueError(f"{path}: no reference rows")
    topics = {pair.topic_id for pair in pairs}
    for topic_id, rows in reference.items():
        if topic_id not in topics:
            raise ValueError(
                f"{path}: line {min(rows.values())}: reference names unknown topic_id {topic_id!r}"
            )
    samples = []
    for pair in pairs:
        rows = reference.get(pair.topic_id)
        if rows is None:
            continue
        ordered = tuple(sorted(rows))
        bad = _bad_reference_row(pair, ordered)
        if bad is not None:
            position, message = bad
            raise ValueError(f"{path}: line {rows[ordered[position]]}: {pair.topic_id}: {message}")
        samples.append(TuningSample(pair=pair, reference=ordered))
    return samples
