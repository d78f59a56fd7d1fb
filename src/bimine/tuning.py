"""Threshold and gap-penalty tuning against human-aligned samples.

Agreement between a machine alignment and a human reference is the
share of reference index pairs that the machine alignment also
produced.  Tuning then draws random (threshold, penalty) candidates
from a seeded generator -- always evaluating the configured defaults
first, so the result can never fall below them -- and keeps the
candidate with the best mean agreement.  Only the gap penalty and the
threshold change between trials, so each sample is scored once and
realigned for all trials together (batched table fills with ``nw``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .align import (
    Alignment,
    MiningConfig,
    build_score_matrix,
    filter_by_threshold,
    nw_align_batch,
    run_engine,
)
from .classifier import SimilarityModel
from .corpus import DocumentPair
from .lexicon import Lexicon

GAP_PENALTY_RANGE = (0.0, 5.0)


@dataclass(frozen=True)
class TuningSample:
    """A document pair together with human-judged parallel indices."""

    pair: DocumentPair
    reference: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = (-1, -1)
        for i, j in self.reference:
            if not (0 <= i < len(self.pair.source.sentences)):
                raise ValueError(f"{self.pair.topic_id}: reference source index {i} out of range")
            if not (0 <= j < len(self.pair.target.sentences)):
                raise ValueError(f"{self.pair.topic_id}: reference target index {j} out of range")
            if i <= previous[0] or j <= previous[1]:
                raise ValueError(f"{self.pair.topic_id}: reference pairs must be monotone")
            previous = (i, j)


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
    if not reference:
        return 100.0 if not candidate else 0.0
    shared = {tuple(pair) for pair in candidate} & {tuple(pair) for pair in reference}
    return 100.0 * len(shared) / len(reference)


def _alignments(
    scores: np.ndarray, config: MiningConfig, gaps: Sequence[float], engine: str
) -> Iterator[Alignment]:
    """One alignment of ``scores`` per gap penalty, in order."""
    if engine == "nw":
        return nw_align_batch(scores, config, gaps)
    return (run_engine(scores, replace(config, gap_penalty=gap), engine) for gap in gaps)


def tune(
    model: SimilarityModel,
    lexicon: Lexicon,
    samples: Sequence[TuningSample],
    budget: int,
    seed: int,
    engine: str = "nw",
    base_config: MiningConfig | None = None,
) -> TuningResult:
    """Seeded random search over (threshold, gap_penalty).

    Trial 1 always evaluates ``base_config`` unchanged; the remaining
    ``budget - 1`` trials draw threshold uniformly from [0, 1] and the
    gap penalty uniformly from [0, 5].  The best mean agreement wins,
    earliest trial on ties, so a longer budget with the same seed can
    never return a worse result.

    All trials are drawn up front.  Each sample is then scored once and
    realigned for every trial's gap penalty; with the ``nw`` engine the
    realignments of one sample share batched table fills
    (``align.nw_align_batch``).
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
    gaps = [gap_penalty for _, gap_penalty in trials]

    # The similarity matrix of a sample does not depend on the searched
    # parameters, so score each sample once and realign per trial.
    per_trial = [[0.0] * len(samples) for _ in trials]
    for s, sample in enumerate(samples):
        pair = sample.pair
        matrix = build_score_matrix(model, lexicon, pair.source.sentences, pair.target.sentences)
        for trial, alignment in enumerate(_alignments(matrix, config, gaps, engine)):
            matched = filter_by_threshold(matrix, alignment, trials[trial][0])
            per_trial[trial][s] = alignment_agreement(
                [(i, j) for _, i, j in matched], sample.reference
            )

    best: tuple[float, int, float, float, tuple[float, ...]] | None = None
    default_agreement = 0.0
    for trial, (threshold, gap_penalty) in enumerate(trials):
        agreements = tuple(per_trial[trial])
        mean_agreement = sum(agreements) / len(agreements)
        if trial == 0:
            default_agreement = mean_agreement
        if best is None or mean_agreement > best[0]:
            best = (mean_agreement, trial, threshold, gap_penalty, agreements)

    assert best is not None
    mean_agreement, _, threshold, gap_penalty, agreements = best
    return TuningResult(
        threshold=threshold,
        gap_penalty=gap_penalty,
        agreement=mean_agreement,
        trials=budget,
        per_sample=agreements,
        default_agreement=default_agreement,
    )


def read_reference(path: str | os.PathLike) -> dict[str, list[tuple[int, int]]]:
    """Read ``topic_id<TAB>source_index<TAB>target_index`` rows."""
    reference: dict[str, list[tuple[int, int]]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            try:
                pair = (int(fields[1]), int(fields[2]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: indices must be integers, got "
                    f"{fields[1]!r} and {fields[2]!r}"
                ) from None
            reference.setdefault(fields[0], []).append(pair)
    return reference
