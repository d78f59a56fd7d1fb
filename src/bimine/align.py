"""Sentence-sequence alignment engines and document-pair mining.

A document pair is scored into an N x M similarity matrix (one cell per
sentence pair, values in [0, 1]) by ``classifier.score_pairs``, which
computes the features of whole row blocks with numpy and matches scoring
each cell on its own bit for bit.  Cell values are mapped affinely onto
[mismatch_cost, match_bonus] and an alignment maximizing total mapped
score minus gap penalties is found by one of two engines:

* ``nw_align``    -- dynamic programming: one table fill (a numpy
  anti-diagonal sweep, see ``kernels``) and a tie-ordered traceback
  that walks the table and keeps only the matched cells (``_matches``).
  The steps of the returned ``Alignment`` are rebuilt from the matches
  (``_steps``).  ``nw_align_batch`` gives the matched cells of one
  matrix for many gap penalties, filling their tables together in
  bounded batches and walking each in place (tuning uses it);
* ``astar_align`` -- best-first search over the alignment grid.
  Constrained to right/down/diagonal moves it matches the dynamic
  program; unconstrained it may also step left at no cost, re-entering
  earlier columns, which reproduces the repetition artifact of greedy
  sequence aligners that skip the monotonicity requirement.

Matches above a confidence threshold become mined sentence pairs.
Corpus mining fans document pairs out over worker processes; output
order follows input order regardless of completion order, so results
are identical for any worker count.  A worker that dies costs only the
pairs of the chunk that killed it.  Within a worker (or the serial run)
document pairs are mined in blocks of whole pairs: one scoring pass per
block (``classifier.score_pairs``), and with ``nw`` one table sweep per
block (``kernels.fill_many``), then the match walk and the threshold per
pair; no ``Alignment`` is built.  Every pair's rows equal those of
mining it alone (``mine_document_pair``).
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .classifier import (
    SentenceProfile,
    SimilarityModel,
    pair_blocks,
    profile_sentence,
    score_pairs,
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
        for name in ("gap_penalty", "match_bonus", "mismatch_cost"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.gap_penalty < 0.0:
            raise ValueError("gap penalty must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def _validate_scores(scores: np.ndarray) -> np.ndarray:
    sim = np.ascontiguousarray(scores, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] == 0 or sim.shape[1] == 0:
        raise ValueError("score matrix must be a non-empty 2-D array")
    if not np.all(np.isfinite(sim)) or sim.min() < 0.0 or sim.max() > 1.0:
        raise ValueError("score matrix values must be finite and lie in [0, 1]")
    return sim


def _profiles(sentences: Sequence[str], side: str) -> list[SentenceProfile]:
    result = []
    for index, sentence in enumerate(sentences):
        try:
            result.append(profile_sentence(sentence))
        except ValueError as exc:
            raise ValueError(f"{side} sentence {index}: {exc}") from None
    return result


def build_score_matrix(
    model: SimilarityModel,
    lexicon: Lexicon,
    source_sentences: Sequence[str],
    target_sentences: Sequence[str],
) -> np.ndarray:
    """Similarity of every source sentence against every target sentence."""
    if not source_sentences or not target_sentences:
        raise ValueError("both sentence sequences must be non-empty")
    pair = (_profiles(source_sentences, "source"), _profiles(target_sentences, "target"))
    return score_pairs(model, lexicon, [pair])[0]


def _matches(
    tables: np.ndarray, lane: int, sim: np.ndarray, mismatch: float, bonus: float, gap: float
) -> list[tuple[float, int, int]]:
    """The traceback's matched cells ``(score, i, j)`` of ``sim``, in order.

    ``tables`` is a C-contiguous ``(N+1, M+1, L)`` array as ``kernels``
    fills it, and ``tables[: n + 1, : m + 1, lane]`` is the table of the
    reversed problem, so its cell ``(n-i, m-j)`` is the best score of the
    remaining suffixes.  Walking forward from (0, 0) lets ties resolve in
    reading order: diagonal first, then source gap, then target gap.
    Every cell of the table was assigned as the max of the candidates
    recomputed here, so one equality always holds exactly.  A gap move
    only advances ``i`` or ``j``; nothing is recorded for it.

    The lane is read in place, through a flat memoryview of ``tables``
    and of the C-contiguous ``sim``: each read is one integer index and
    returns the same IEEE double as a Python float, at a fraction of the
    cost of a numpy scalar, and only the O(n + m) cells the walk visits
    are converted.  The score of a match is the cell read for its
    diagonal test.
    """
    n, m = sim.shape
    col = tables.shape[2]
    row = tables.shape[1] * col
    diag = row + col
    dp = memoryview(tables.reshape(-1))
    cells = memoryview(sim.reshape(-1))
    scale = bonus - mismatch
    matches = []
    k = lane + n * row + m * col  # the table cell of (i, j)
    p = i = j = 0  # p: the cell of (i, j) in sim
    while i < n and j < m:
        value = dp[k]
        score = cells[p]
        if value == mismatch + score * scale + dp[k - diag]:
            matches.append((score, i, j))
            i += 1
            j += 1
            k -= diag
            p += m + 1
        elif value == dp[k - row] - gap:
            i += 1
            k -= row
            p += m
        else:
            j += 1
            k -= col
            p += 1
    return matches


def _steps(matches: Sequence[tuple[float, int, int]], dp_rev: memoryview, gap: float) -> list[Step]:
    """Every step of the walk of ``_matches``, rebuilt from its matches and
    the table ``dp_rev`` it walked.

    Up to each match the walk takes every source gap before any target
    gap.  Write V(i, j) for the table's score of the suffixes from
    (i, j).  Were a target gap at (i, j) followed by a source gap at
    (i, j+1) with i + 1 < n, then V(i, j) = (V(i+1, j+1) - gap) - gap,
    each difference rounded, while the inner cell V(i+1, j) is at least
    V(i+1, j+1) - gap.  Rounding x - gap is monotone in x, so
    V(i+1, j) - gap >= V(i, j) and the source-gap test would already
    have held at (i, j).  The other ways a target gap can precede a
    source gap -- a source gap out of row n - 1, or the source gaps left
    once a target gap reaches the last column -- leave no cell for a
    further match.  They occur only after the last match, where the
    table's outer row and column hold ``-(gap * k)`` rather than repeated
    subtractions and ties may round either way, so that stretch is
    replayed against the table.
    """
    n, m = dp_rev.shape[0] - 1, dp_rev.shape[1] - 1
    steps: list[Step] = []
    i = j = 0
    for _, mi, mj in matches:
        steps.extend(GapSource(k) for k in range(i, mi))
        steps.extend(GapTarget(k) for k in range(j, mj))
        steps.append(Match(mi, mj))
        i, j = mi + 1, mj + 1
    while i < n and j < m:
        if dp_rev[n - i, m - j] == dp_rev[n - i - 1, m - j] - gap:
            steps.append(GapSource(i))
            i += 1
        else:
            steps.append(GapTarget(j))
            j += 1
    steps.extend(GapSource(k) for k in range(i, n))
    steps.extend(GapTarget(k) for k in range(j, m))
    return steps


def _reversed_scores(sim: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(sim[::-1, ::-1])


def nw_align(scores: np.ndarray, config: MiningConfig) -> Alignment:
    """Optimal monotone alignment by dynamic programming.

    One table fill (``kernels.fill_sequential``) and the walk of
    ``_matches``; the steps of the ``Alignment`` are rebuilt from the
    matches (``_steps``).
    """
    sim = _validate_scores(scores)
    mismatch, bonus, gap = config.mismatch_cost, config.match_bonus, config.gap_penalty
    dp_rev = kernels.fill_sequential(_reversed_scores(sim), mismatch, bonus, gap)
    matches = _matches(dp_rev[:, :, None], 0, sim, mismatch, bonus, gap)
    return Alignment(
        steps=tuple(_steps(matches, memoryview(dp_rev), gap)), score=float(dp_rev[-1, -1])
    )


def nw_align_batch(
    scores: np.ndarray, config: MiningConfig, gaps: Sequence[float]
) -> Iterator[list[tuple[float, int, int]]]:
    """The matched cells ``(score, i, j)`` of ``nw_align`` of one matrix for
    each gap penalty, yielded in order.

    Each item equals ``filter_by_threshold(scores, nw_align(...), 0.0)``
    with that gap penalty, without building an ``Alignment``.
    ``config.gap_penalty`` is ignored; every other field applies to all
    gaps.  The matrix is validated and reversed once.  Tables are filled
    in batches of at most ``kernels.BATCH_CELLS`` cells, and each lane
    of a batch is walked in place as the batch completes, so memory
    stays bounded for any number of gaps.
    """
    sim = _validate_scores(scores)
    gaps = [float(gap) for gap in gaps]
    if not all(math.isfinite(gap) and gap >= 0.0 for gap in gaps):
        raise ValueError("gap penalties must be finite and >= 0")
    reversed_sim = _reversed_scores(sim)
    mismatch, bonus = config.mismatch_cost, config.match_bonus
    n, m = sim.shape
    per_batch = max(1, kernels.BATCH_CELLS // ((n + 1) * (m + 1)))

    def matches() -> Iterator[list[tuple[float, int, int]]]:
        for first in range(0, len(gaps), per_batch):
            chunk = gaps[first : first + per_batch]
            tables = kernels.fill_batch(reversed_sim, mismatch, bonus, chunk)
            for lane, gap in enumerate(chunk):
                yield _matches(tables, lane, sim, mismatch, bonus, gap)

    return matches()


def nw_align_wavefront(scores: np.ndarray, config: MiningConfig, workers: int) -> Alignment:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return nw_align(scores, config)


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
    """Match steps whose similarity reaches the threshold, in step order.

    Scores are compared and emitted as float64 Python floats, whatever
    the dtype and layout of ``scores``.
    """
    # One memoryview read per matched cell, as in ``_matches``.
    cells = memoryview(np.ascontiguousarray(scores, dtype=np.float64))
    emitted = []
    for step in alignment.steps:
        if isinstance(step, Match):
            value = cells[step.i, step.j]
            if value >= threshold:
                emitted.append((value, step.i, step.j))
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

WORKER_DIED = "worker process died"


def _pool_init(model: SimilarityModel, lexicon: Lexicon, config: MiningConfig, engine: str) -> None:
    _POOL_STATE["args"] = (model, lexicon, config, engine)


def _profile_pair(pair: DocumentPair) -> tuple[list[SentenceProfile], list[SentenceProfile]]:
    """Profiles of both sides of one pair, the per-pair step of mining."""
    return _profiles(pair.source.sentences, "source"), _profiles(pair.target.sentences, "target")


def _mined_cells(
    matrices: Sequence[np.ndarray], config: MiningConfig, engine: str
) -> list[list[tuple[float, int, int]]]:
    """Matched cells ``(score, i, j)`` at or above the threshold of each of
    a block's score matrices.  With ``nw`` all tables come from one sweep
    (``kernels.fill_many``) and each is walked in place (``_matches``);
    with ``astar_constrained`` each matrix is searched on its own and
    filtered (``filter_by_threshold``)."""
    threshold = config.threshold
    if engine != "nw":
        return [
            filter_by_threshold(matrix, run_engine(matrix, config, engine), threshold)
            for matrix in matrices
        ]
    mismatch, bonus, gap = config.mismatch_cost, config.match_bonus, config.gap_penalty
    tables = kernels.fill_many([matrix[::-1, ::-1] for matrix in matrices], mismatch, bonus, gap)
    return [
        [cell for cell in _matches(tables, k, matrix, mismatch, bonus, gap) if cell[0] >= threshold]
        for k, matrix in enumerate(matrices)
    ]


def _mine_pairs(
    model: SimilarityModel,
    lexicon: Lexicon,
    pairs: Sequence[DocumentPair],
    config: MiningConfig,
    engine: str,
) -> list[tuple[list[tuple[float, str, str]] | None, str | None]]:
    """Mined rows or an error message for each pair, in order.

    The one mining path of the serial run and of every pool worker.
    Pairs are taken in the blocks of ``classifier.pair_blocks``.  Each
    pair of a block is profiled on its own; a pair that fails there is
    reported as ``pair <id>: ...`` and leaves the block.  The rest of the
    block is scored together (``classifier.score_pairs``) and aligned
    together, down to each pair's matched cells at or above the
    threshold (``_mined_cells``).  Every pair's rows equal
    ``mine_document_pair``'s.
    """
    outcomes: list = [None] * len(pairs)
    shapes = [(len(pair.source.sentences), len(pair.target.sentences)) for pair in pairs]
    for block in pair_blocks(shapes):
        kept: list[int] = []
        profiled = []
        for k in range(block.start, block.stop):
            try:
                profiled.append(_profile_pair(pairs[k]))
            except ValueError as exc:
                outcomes[k] = (None, f"pair {pairs[k].topic_id}: {exc}")
            else:
                kept.append(k)
        if not kept:
            continue
        try:
            matrices = score_pairs(model, lexicon, profiled)
            for k, cells in zip(kept, _mined_cells(matrices, config, engine)):
                source, target = pairs[k].source.sentences, pairs[k].target.sentences
                outcomes[k] = ([(score, source[i], target[j]) for score, i, j in cells], None)
        except Exception as exc:  # the run continues past failing pairs
            for k in kept:
                outcomes[k] = (None, str(exc))
    return outcomes


def _pool_mine(chunk: list[DocumentPair]):
    model, lexicon, config, engine = _POOL_STATE["args"]
    return _mine_pairs(model, lexicon, chunk, config, engine)


def _pool_results(chunks: list[list[DocumentPair]], workers: int, initargs: tuple) -> list:
    """Outcomes of each chunk from one fresh pool; ``None`` for every
    chunk whose result had not arrived when a worker process died."""
    results: list = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=get_context("fork"),
        initializer=_pool_init,
        initargs=initargs,
    ) as executor:
        futures = [executor.submit(_pool_mine, chunk) for chunk in chunks]
        for future in futures:
            try:
                results.append(future.result())
            except BrokenProcessPool:
                results.append(None)
    return results


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
    order, and failing pairs are reported and skipped.  A worker process
    that dies (out of memory, a signal) breaks the pool, which fails
    every chunk of pairs still pending; each of those chunks is rerun
    once, alone in a fresh one-process pool, in input order.  Only the
    pairs of a chunk that kills its worker again are reported, as
    ``worker process died``.  Parallelism comes from the pair-level
    fan-out only; every alignment runs on one thread.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    workers = min(config.workers, max(len(pairs), 1))
    lexicon.compiled()  # built here once, so that forked workers share it
    if workers <= 1:
        outcomes = _mine_pairs(model, lexicon, pairs, config, engine)
    else:
        outcomes = []
        chunksize = max(1, len(pairs) // (workers * 4))
        chunks = [list(pairs[k : k + chunksize]) for k in range(0, len(pairs), chunksize)]
        initargs = (model, lexicon, config, engine)
        for chunk, result in zip(chunks, _pool_results(chunks, workers, initargs)):
            if result is None:
                # Alone, a chunk that kills its worker takes no other pairs with it.
                (result,) = _pool_results([chunk], 1, initargs)
            outcomes.extend(result if result is not None else [(None, WORKER_DIED)] * len(chunk))

    mined: list[tuple[float, str, str]] = []
    failures: list[tuple[str, str]] = []
    for pair, (rows, error) in zip(pairs, outcomes):
        if error is None and rows is not None:
            mined.extend(rows)
        else:
            failures.append((pair.topic_id, error or "unknown error"))
    return MiningOutcome(rows=tuple(mined), failures=tuple(failures))
