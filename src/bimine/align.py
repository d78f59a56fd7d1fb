"""Sentence-sequence alignment engines and document-pair mining.

A document pair is scored into an N x M similarity matrix (one cell per
sentence pair, values in [0, 1]).  Cell values are mapped affinely onto
[mismatch_cost, match_bonus] and an alignment maximizing total mapped
score minus gap penalties is found by one of two engines:

* ``nw_align``    -- dynamic programming: one table fill (compiled or
  numpy, see ``kernels``) and a tie-ordered traceback;
* ``astar_align`` -- best-first search over the alignment grid.
  Constrained to right/down/diagonal moves it matches the dynamic
  program; unconstrained it may also step left at no cost, re-entering
  earlier columns, which reproduces the repetition artifact of greedy
  sequence aligners that skip the monotonicity requirement.

Matches above a confidence threshold become mined sentence pairs.
Corpus mining fans document pairs out over worker processes; output
order follows input order regardless of completion order, so results
are identical for any worker count.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Sequence

import numpy as np

from . import kernels
from .classifier import (
    SentenceProfile,
    SimilarityModel,
    features_from_profiles,
    profile_sentence,
    reachable_targets,
)
from .corpus import DocumentPair
from .lexicon import Lexicon

ENGINES = ("nw", "astar_constrained")


@dataclass(frozen=True)
class Match:
    i: int
    j: int


@dataclass(frozen=True)
class GapSource:
    i: int


@dataclass(frozen=True)
class GapTarget:
    j: int


Step = Match | GapSource | GapTarget


@dataclass(frozen=True)
class Alignment:
    steps: tuple[Step, ...]
    score: float


@dataclass(frozen=True)
class MiningConfig:
    """Tunable mining parameters; threshold and gap penalty are the two
    the tuner searches over."""

    threshold: float = 0.5
    gap_penalty: float = 2.0
    match_bonus: float = 1.0
    mismatch_cost: float = -1.0
    workers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if self.gap_penalty < 0.0:
            raise ValueError("gap penalty must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _validate_scores(scores: np.ndarray) -> np.ndarray:
    sim = np.asarray(scores, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] == 0 or sim.shape[1] == 0:
        raise ValueError("score matrix must be a non-empty 2-D array")
    if not np.all(np.isfinite(sim)) or sim.min() < 0.0 or sim.max() > 1.0:
        raise ValueError("score matrix values must be finite and lie in [0, 1]")
    return sim


def build_score_matrix(
    model: SimilarityModel,
    lexicon: Lexicon,
    source_sentences: Sequence[str],
    target_sentences: Sequence[str],
) -> np.ndarray:
    """Similarity of every source sentence against every target sentence."""
    if not source_sentences or not target_sentences:
        raise ValueError("both sentence sequences must be non-empty")

    def profiles(sentences: Sequence[str], side: str) -> list[SentenceProfile]:
        result = []
        for index, sentence in enumerate(sentences):
            try:
                result.append(profile_sentence(sentence))
            except ValueError as exc:
                raise ValueError(f"{side} sentence {index}: {exc}") from None
        return result

    source_profiles = profiles(source_sentences, "source")
    target_profiles = profiles(target_sentences, "target")
    matrix = np.empty((len(source_profiles), len(target_profiles)), dtype=np.float64)
    for i, sp in enumerate(source_profiles):
        reach = reachable_targets(sp, lexicon)
        for j, tp in enumerate(target_profiles):
            features = features_from_profiles(sp, tp, lexicon, source_reach=reach)
            matrix[i, j] = model.score_from_margin(model.margin(features))
    return matrix


def _traceback(
    dp_rev: np.ndarray, sim: np.ndarray, mismatch: float, bonus: float, gap: float
) -> list[Step]:
    # dp_rev is the table of the reversed problem, so dp_rev[n-i, m-j] is
    # the best score of the remaining suffixes.  Walking forward from
    # (0, 0) lets ties resolve in reading order: diagonal first, then
    # source gap, then target gap.  Every cell of dp_rev was assigned as
    # the max of the candidates recomputed here, so one equality always
    # holds exactly.
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


def _reversed_scores(sim: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(sim[::-1, ::-1])


def nw_align(scores: np.ndarray, config: MiningConfig, backend: str | None = None) -> Alignment:
    """Optimal monotone alignment by dynamic programming."""
    sim = _validate_scores(scores)
    dp_rev = kernels.fill_sequential(
        _reversed_scores(sim),
        config.mismatch_cost,
        config.match_bonus,
        config.gap_penalty,
        backend=backend,
    )
    steps = _traceback(dp_rev, sim, config.mismatch_cost, config.match_bonus, config.gap_penalty)
    return Alignment(steps=tuple(steps), score=float(dp_rev[-1, -1]))


def nw_align_wavefront(
    scores: np.ndarray, config: MiningConfig, workers: int, backend: str | None = None
) -> Alignment:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return nw_align(scores, config, backend)


def astar_align(scores: np.ndarray, config: MiningConfig, constrained: bool = True) -> Alignment:
    """Best-first search over the alignment grid.

    With ``constrained=True`` moves are limited to right, down and
    diagonal and the result score equals the dynamic program's.  With
    ``constrained=False`` free leftward moves are also allowed: the
    search may re-enter earlier columns and pair them again (each
    re-entered cell scores again), so one target sentence can appear
    against several source sentences.  A depth cap of ``2 * (N + M)``
    bounds the unconstrained search.
    """
    sim = _validate_scores(scores)
    if constrained:
        return _astar_constrained(sim, config)
    return _astar_unconstrained(sim, config)


def _mapped(sim: np.ndarray, i: int, j: int, mismatch: float, bonus: float) -> float:
    return mismatch + sim[i, j] * (bonus - mismatch)


def _reconstruct(
    parent: dict[tuple[int, int], tuple[int, int, Step | None] | None],
    goal: tuple[int, int],
) -> list[Step]:
    steps: list[Step] = []
    node = goal
    while True:
        entry = parent[node]
        if entry is None:
            break
        pi, pj, step = entry
        if step is not None:
            steps.append(step)
        node = (pi, pj)
    steps.reverse()
    return steps


def _astar_constrained(sim: np.ndarray, config: MiningConfig) -> Alignment:
    n, m = sim.shape
    bonus = config.match_bonus
    mismatch = config.mismatch_cost
    gap = config.gap_penalty
    h_bonus = max(bonus, 0.0)

    def h(i: int, j: int) -> float:
        # Optimistic completion: fewest possible remaining steps, each
        # collecting the full match bonus.
        return max(n - i, m - j) * h_bonus

    g_best: dict[tuple[int, int], float] = {(0, 0): 0.0}
    parent: dict[tuple[int, int], tuple[int, int, Step | None] | None] = {(0, 0): None}
    counter = 0
    heap: list[tuple[float, int, int, int, float]] = [(-h(0, 0), counter, 0, 0, 0.0)]
    while heap:
        _, _, i, j, g = heapq.heappop(heap)
        if g < g_best.get((i, j), -np.inf):
            continue
        if i == n and j == m:
            return Alignment(steps=tuple(_reconstruct(parent, (n, m))), score=g)
        moves: list[tuple[int, int, float, Step | None]] = []
        if i < n and j < m:
            moves.append((i + 1, j + 1, g + _mapped(sim, i, j, mismatch, bonus), Match(i, j)))
        if i < n:
            moves.append((i + 1, j, g - gap, GapSource(i)))
        if j < m:
            moves.append((i, j + 1, g - gap, GapTarget(j)))
        for ni, nj, ng, step in moves:
            if ng > g_best.get((ni, nj), -np.inf):
                g_best[(ni, nj)] = ng
                parent[(ni, nj)] = (i, j, step)
                counter += 1
                heapq.heappush(heap, (-(ng + h(ni, nj)), counter, ni, nj, ng))
    raise RuntimeError("search exhausted without reaching the goal")


def _astar_unconstrained(sim: np.ndarray, config: MiningConfig) -> Alignment:
    n, m = sim.shape
    bonus = config.match_bonus
    mismatch = config.mismatch_cost
    gap = config.gap_penalty
    h_bonus = max(bonus, 0.0)
    depth_cap = 2 * (n + m)

    def h(i: int, j: int) -> float:
        # Every remaining row may still be matched; columns beyond what
        # diagonal moves can absorb must be paid for as gaps.
        return (n - i) * h_bonus - gap * max(0, (m - j) - (n - i))

    g_best: dict[tuple[int, int], float] = {(0, 0): 0.0}
    parent: dict[tuple[int, int], tuple[int, int, Step | None] | None] = {(0, 0): None}
    counter = 0
    heap: list[tuple[float, int, int, int, float, int]] = [(-h(0, 0), counter, 0, 0, 0.0, 0)]
    while heap:
        _, _, i, j, g, depth = heapq.heappop(heap)
        if g < g_best.get((i, j), -np.inf):
            continue
        if i == n and j == m:
            return Alignment(steps=tuple(_reconstruct(parent, (n, m))), score=g)
        if depth >= depth_cap:
            continue
        moves: list[tuple[int, int, float, Step | None]] = []
        if i < n and j < m:
            moves.append((i + 1, j + 1, g + _mapped(sim, i, j, mismatch, bonus), Match(i, j)))
        if i < n:
            moves.append((i + 1, j, g - gap, GapSource(i)))
        if j < m:
            moves.append((i, j + 1, g - gap, GapTarget(j)))
        if j > 0:
            moves.append((i, j - 1, g, None))  # free backtrack into earlier columns
        for ni, nj, ng, step in moves:
            if ng > g_best.get((ni, nj), -np.inf):
                g_best[(ni, nj)] = ng
                parent[(ni, nj)] = (i, j, step)
                counter += 1
                heapq.heappush(heap, (-(ng + h(ni, nj)), counter, ni, nj, ng, depth + 1))
    raise RuntimeError("unconstrained search diverged")


def filter_by_threshold(
    scores: np.ndarray, alignment: Alignment, threshold: float
) -> list[tuple[float, int, int]]:
    """Match steps whose similarity reaches the threshold, in step order."""
    sim = np.asarray(scores)
    emitted = []
    for step in alignment.steps:
        if isinstance(step, Match) and sim[step.i, step.j] >= threshold:
            emitted.append((float(sim[step.i, step.j]), step.i, step.j))
    return emitted


def run_engine(scores: np.ndarray, config: MiningConfig, engine: str) -> Alignment:
    if engine == "nw":
        return nw_align(scores, config)
    if engine == "astar_constrained":
        return astar_align(scores, config, constrained=True)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def align_pair_indices(
    model: SimilarityModel,
    lexicon: Lexicon,
    pair: DocumentPair,
    config: MiningConfig,
    engine: str = "nw",
) -> list[tuple[float, int, int]]:
    """Mine one document pair down to (score, i, j) index triples."""
    scores = build_score_matrix(model, lexicon, pair.source.sentences, pair.target.sentences)
    alignment = run_engine(scores, config, engine)
    return filter_by_threshold(scores, alignment, config.threshold)


def mine_document_pair(
    model: SimilarityModel,
    lexicon: Lexicon,
    pair: DocumentPair,
    config: MiningConfig,
    engine: str = "nw",
) -> list[tuple[float, str, str]]:
    """Mined sentence pairs of one document pair, with similarity scores."""
    try:
        matches = align_pair_indices(model, lexicon, pair, config, engine)
    except ValueError as exc:
        raise ValueError(f"pair {pair.topic_id}: {exc}") from None
    return [
        (score, pair.source.sentences[i], pair.target.sentences[j])
        for score, i, j in matches
    ]


@dataclass(frozen=True)
class MiningOutcome:
    rows: tuple[tuple[float, str, str], ...]
    failures: tuple[tuple[str, str], ...]  # (topic_id, error message)


_POOL_STATE: dict = {}


def _pool_init(model: SimilarityModel, lexicon: Lexicon, config: MiningConfig, engine: str) -> None:
    _POOL_STATE["args"] = (model, lexicon, config, engine)


def _pool_mine(item: tuple[int, DocumentPair]):
    index, pair = item
    model, lexicon, config, engine = _POOL_STATE["args"]
    try:
        return index, mine_document_pair(model, lexicon, pair, config, engine), None
    except Exception as exc:  # the run continues past failing pairs
        return index, None, str(exc)


def mine_corpus(
    model: SimilarityModel,
    lexicon: Lexicon,
    pairs: Sequence[DocumentPair],
    config: MiningConfig,
    engine: str = "nw",
) -> MiningOutcome:
    """Mine document pairs across ``config.workers`` worker processes.

    The model and lexicon are shared read-only with the workers; output
    concatenation follows the input pair order whatever the completion
    order, and failing pairs are reported and skipped.  Parallelism comes
    from the pair-level fan-out only; every alignment runs on one thread.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    workers = min(config.workers, max(len(pairs), 1))
    outcomes: list[tuple[list[tuple[float, str, str]] | None, str | None]] = []
    if workers <= 1:
        for pair in pairs:
            try:
                outcomes.append((mine_document_pair(model, lexicon, pair, config, engine), None))
            except Exception as exc:
                outcomes.append((None, str(exc)))
    else:
        chunksize = max(1, len(pairs) // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("fork"),
            initializer=_pool_init,
            initargs=(model, lexicon, config, engine),
        ) as executor:
            ordered = sorted(
                executor.map(_pool_mine, enumerate(pairs), chunksize=chunksize),
                key=lambda r: r[0],
            )
        outcomes = [(rows, error) for _, rows, error in ordered]

    mined: list[tuple[float, str, str]] = []
    failures: list[tuple[str, str]] = []
    for pair, (rows, error) in zip(pairs, outcomes):
        if error is None and rows is not None:
            mined.extend(rows)
        else:
            failures.append((pair.topic_id, error or "unknown error"))
    return MiningOutcome(rows=tuple(mined), failures=tuple(failures))
