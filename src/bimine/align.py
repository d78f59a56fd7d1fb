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
  (``_steps``);
* ``astar_align`` -- one best-first search over the alignment grid
  with two move sets.  Constrained to right/down/diagonal moves it
  matches the dynamic program; unconstrained it may also step left at
  no cost, re-entering earlier columns, which reproduces the repetition
  artifact of greedy sequence aligners that skip the monotonicity
  requirement.

``run_engine`` is the one place an engine name (``ENGINES``) becomes
an alignment.

Matches above a confidence threshold become mined sentence pairs.
Mining and tuning align through one walker, ``kept_cells``: its lanes
are the score matrices of document pairs with one (threshold, gap
penalty) trial, or one matrix with many trials.  With ``nw`` it fills
lanes of similar shape together in bounded groups (``kernels.fill``,
which keeps only each cell's traceback moves) and walks each lane's
moves for its matched cells, so no ``Alignment`` is built.

Corpus mining fans document pairs out over worker processes; output
order follows input order regardless of completion order, so results
are identical for any worker count.  A worker that dies costs only the
pairs of the chunk that killed it.  Within a worker (or the serial run)
document pairs are mined in blocks of whole pairs (``_mine_pairs``): one
scoring pass per block (``classifier.score_pairs``), then ``kept_cells``
over the matrices of consecutive blocks.  ``mine_document_pair`` is its
one-pair case.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .classifier import SimilarityModel, encode_pair, pair_blocks, score_pairs
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
    # A NaN makes both comparisons false, and an infinity fails one.
    if not (sim.min() >= 0.0 and sim.max() <= 1.0):
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
    pair = encode_pair(lexicon.compiled(), source_sentences, target_sentences)
    return score_pairs(model, lexicon, [pair])[0]


def _matches(
    moves: np.ndarray, lane: int, sim: np.ndarray, threshold: float
) -> list[tuple[float, int, int]]:
    """The traceback's matched cells ``(score, i, j)`` of ``sim`` whose
    score reaches ``threshold``, in order.

    ``moves`` is a C-contiguous ``(2, N+1, M+1, L)`` array as
    ``kernels.fill`` returns it, and lane ``lane`` holds the moves of the
    reversed problem, so its cell ``(n-i, m-j)`` tells which candidate
    gave the best score of the remaining suffixes.  Walking forward from
    (0, 0) lets ties resolve in reading order: diagonal first, then
    source gap, then target gap.  A gap move only advances ``i`` or
    ``j``; nothing is recorded for it.

    The lane is read in place, through a flat memoryview of ``moves`` and
    of the C-contiguous ``sim``: each read is one integer index and
    returns a Python bool or float, at a fraction of the cost of a numpy
    scalar, and only the O(n + m) cells the walk visits are read.
    """
    n, m = sim.shape
    col = moves.shape[3]
    row = moves.shape[2] * col
    diag = row + col
    up = moves.shape[1] * row  # from a cell's diagonal move to its up move
    flat = memoryview(moves.reshape(-1))
    cells = memoryview(sim.reshape(-1))
    matches = []
    k = lane + n * row + m * col  # the diagonal move of (i, j)
    p = i = j = 0  # p: the cell of (i, j) in sim
    while i < n and j < m:
        if flat[k]:
            score = cells[p]
            if score >= threshold:
                matches.append((score, i, j))
            i += 1
            j += 1
            k -= diag
            p += m + 1
        elif flat[k + up]:
            i += 1
            k -= row
            p += m
        else:
            j += 1
            k -= col
            p += 1
    return matches


def _steps(matches: Sequence[tuple[float, int, int]], up: memoryview) -> list[Step]:
    """Every step of the walk of ``_matches``, rebuilt from its matches and
    the up moves ``up`` (an ``(n+1, m+1)`` plane) of the lane it walked.

    Up to each match the walk takes every source gap before any target
    gap.  Write V(i, j) for the reversed table's score of the suffixes
    from (i, j).  Were a target gap at (i, j) followed by a source gap at
    (i, j+1) with i + 1 < n, then V(i, j) = (V(i+1, j+1) - gap) - gap,
    each difference rounded, while the inner cell V(i+1, j) is at least
    V(i+1, j+1) - gap.  Rounding x - gap is monotone in x, so
    V(i+1, j) - gap >= V(i, j) and the source gap would already have won
    at (i, j).  The other ways a target gap can precede a source gap -- a
    source gap out of row n - 1, or the source gaps left once a target
    gap reaches the last column -- leave no cell for a further match.
    They occur only after the last match, where the table's outer row and
    column hold ``-(gap * k)`` rather than repeated subtractions and ties
    may round either way, so that stretch is replayed from the moves.
    """
    n, m = up.shape[0] - 1, up.shape[1] - 1
    steps: list[Step] = []
    i = j = 0
    for _, mi, mj in matches:
        steps.extend(GapSource(k) for k in range(i, mi))
        steps.extend(GapTarget(k) for k in range(j, mj))
        steps.append(Match(mi, mj))
        i, j = mi + 1, mj + 1
    while i < n and j < m:
        if up[n - i, m - j]:
            steps.append(GapSource(i))
            i += 1
        else:
            steps.append(GapTarget(j))
            j += 1
    steps.extend(GapSource(k) for k in range(i, n))
    steps.extend(GapTarget(k) for k in range(j, m))
    return steps


def nw_align(scores: np.ndarray, config: MiningConfig) -> Alignment:
    """Optimal monotone alignment by dynamic programming.

    One fill (``kernels.fill``) of the reversed problem and the walk of
    ``_matches`` over its moves, keeping every match; the steps of the
    ``Alignment`` are rebuilt from the matches (``_steps``) and its score
    is the fill's.
    """
    sim = _validate_scores(scores)
    mismatch, bonus, gap = config.mismatch_cost, config.match_bonus, config.gap_penalty
    moves, final = kernels.fill([sim[::-1, ::-1]], mismatch, bonus, [gap])
    matches = _matches(moves, 0, sim, -math.inf)
    return Alignment(
        steps=tuple(_steps(matches, memoryview(moves[1, :, :, 0]))), score=float(final[0])
    )


def nw_align_wavefront(scores: np.ndarray, config: MiningConfig, workers: int) -> Alignment:
    """Former anti-diagonal engine, kept as a name: ``workers`` is ignored."""
    return nw_align(scores, config)


def astar_align(scores: np.ndarray, config: MiningConfig, constrained: bool = True) -> Alignment:
    """Best-first search over the alignment grid: one search, two move sets.

    Both modes expand a node by a match, a source gap and a target gap, in
    that order.  With ``constrained=True`` those are the only moves and the
    result score equals the dynamic program's.  With ``constrained=False``
    a free leftward move follows them: the search may re-enter earlier
    columns and pair them again (each re-entered cell scores again), so
    one target sentence can appear against several source sentences.  The
    mode also picks the heuristic.  A depth cap of ``2 * (N + M)`` bounds
    the search; a constrained path, which advances on every move, never
    reaches it.
    """
    sim = _validate_scores(scores)
    n, m = sim.shape
    bonus = config.match_bonus
    mismatch = config.mismatch_cost
    gap = config.gap_penalty
    h_bonus = max(bonus, 0.0)
    depth_cap = 2 * (n + m)

    def h(i: int, j: int) -> float:
        if constrained:
            # Optimistic completion: fewest possible remaining steps, each
            # collecting the full match bonus.
            return max(n - i, m - j) * h_bonus
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
        if not constrained and j > 0:
            moves.append((i, j - 1, g, None))  # free backtrack into earlier columns
        for ni, nj, ng, step in moves:
            if ng > g_best.get((ni, nj), -np.inf):
                g_best[(ni, nj)] = ng
                parent[(ni, nj)] = (i, j, step)
                counter += 1
                heapq.heappush(heap, (-(ng + h(ni, nj)), counter, ni, nj, ng, depth + 1))
    if constrained:
        raise RuntimeError("search exhausted without reaching the goal")
    raise RuntimeError("unconstrained search diverged")


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
    """The alignment of ``scores`` by the engine named ``engine``, one of
    ``ENGINES``."""
    if engine == "nw":
        return nw_align(scores, config)
    if engine == "astar_constrained":
        return astar_align(scores, config, constrained=True)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def _lane_groups(shapes: Sequence[tuple[int, int]], own_matrices: bool) -> Iterator[list[int]]:
    """Groups of lanes to fill together, given each lane's shape.

    Lanes are taken largest first (by rows, then columns; in input order
    among equal shapes), so that a group rarely widens after its first
    lane.  A group's fill, padded to its largest ``n`` and ``m``, takes
    at most ``kernels.BATCH_BYTES`` (``kernels.fill_bytes``, with one
    cost lane per lane if ``own_matrices``, else one for all); a lane
    over that is filled alone.  A lane also starts a new group when
    joining would add more padding -- its own table padded to the
    group's shape, or the group's tables widened to its shape -- than
    the cells of its own table, so a group's padded tables hold at most
    twice the cells its lanes need.
    """
    order = sorted(range(len(shapes)), key=lambda lane: shapes[lane], reverse=True)
    group: list[int] = []
    n = m = 0
    for lane in order:
        rows, cols = shapes[lane]
        grown_n, grown_m = max(n, rows), max(m, cols)
        count = len(group) + 1
        own = (rows + 1) * (cols + 1)
        padding = (grown_n + 1) * (grown_m + 1) * count - (n + 1) * (m + 1) * (count - 1) - own
        size = kernels.fill_bytes(grown_n, grown_m, count, count if own_matrices else 1)
        if group and (padding > own or size > kernels.BATCH_BYTES):
            yield group
            group, grown_n, grown_m = [], rows, cols
        group.append(lane)
        n, m = grown_n, grown_m
    if group:
        yield group


def kept_cells(
    matrices: Sequence[np.ndarray],
    trials: Sequence[tuple[float, float]],
    config: MiningConfig,
    engine: str,
) -> Iterator[list[tuple[float, int, int]]]:
    """For each lane in order, the matched cells ``(score, i, j)`` of its
    alignment whose score reaches the lane's threshold.

    Lanes broadcast as numpy's do: K score matrices with one
    ``(threshold, gap penalty)`` trial (mined pairs), one matrix with T
    trials (tuning), or K of each.  A lane's cells equal
    ``filter_by_threshold`` of ``run_engine`` with ``config`` but the
    trial's threshold and gap penalty.  With ``nw``, lanes are filled
    together (``kernels.fill``) in the groups of ``_lane_groups`` and
    each lane's moves are walked in place for its matches at or above
    its threshold only (``_matches``), so memory stays bounded and no
    ``Alignment`` is built.  Lanes are still yielded in order, each as
    soon as it and every lane before it are walked.
    """
    sims = [_validate_scores(matrix) for matrix in matrices]
    thresholds = [float(threshold) for threshold, _ in trials]
    gaps = [float(gap) for _, gap in trials]
    if not all(math.isfinite(gap) and gap >= 0.0 for gap in gaps):
        raise ValueError("gap penalties must be finite and >= 0")
    (lanes,) = np.broadcast_shapes((len(sims),), (len(gaps),))
    # Lane l reads matrix l and trial l, or the only one given.
    k, t = len(sims), len(gaps)
    if engine != "nw":
        for lane in range(lanes):
            sim, gap = sims[lane % k], gaps[lane % t]
            alignment = run_engine(sim, replace(config, gap_penalty=gap), engine)
            yield filter_by_threshold(sim, alignment, thresholds[lane % t])
        return
    mismatch, bonus = config.mismatch_cost, config.match_bonus
    reversed_sims = [sim[::-1, ::-1] for sim in sims]
    done: dict[int, list[tuple[float, int, int]]] = {}
    ready = 0  # the next lane to yield
    for group in _lane_groups([sims[lane % k].shape for lane in range(lanes)], k > 1):
        moves, _ = kernels.fill(
            [reversed_sims[lane] for lane in group] if k > 1 else reversed_sims,
            mismatch,
            bonus,
            [gaps[lane] for lane in group] if t > 1 else gaps,
        )
        for slot, lane in enumerate(group):
            done[lane] = _matches(moves, slot, sims[lane % k], thresholds[lane % t])
        while ready in done:
            yield done.pop(ready)
            ready += 1


@dataclass(frozen=True)
class MiningOutcome:
    rows: tuple[tuple[float, str, str], ...]
    failures: tuple[tuple[str, str], ...]  # (topic_id, error message)


_POOL_STATE: dict = {}

WORKER_DIED = "worker process died"


def _pool_init(model: SimilarityModel, lexicon: Lexicon, config: MiningConfig, engine: str) -> None:
    _POOL_STATE["args"] = (model, lexicon, config, engine)


def _mine_pairs(
    model: SimilarityModel,
    lexicon: Lexicon,
    pairs: Sequence[DocumentPair],
    config: MiningConfig,
    engine: str,
) -> list[tuple[list[tuple[float, str, str]] | None, str | None]]:
    """Mined rows or an error message for each pair, in order.

    The one mining path of the serial run, of every pool worker and of
    ``mine_document_pair``.  Pairs are taken in the blocks of
    ``classifier.pair_blocks``.  Each pair of a block is tokenized on its
    own (``classifier.encode_pair``); a pair that fails there leaves the
    block.  The rest of the block is scored together (``score_pairs``).
    The score matrices of consecutive blocks are then aligned together by
    one ``kept_cells`` call, one lane per pair, down to each pair's
    matched cells at or above the threshold; a call takes blocks while
    their lanes, each alone, fit in ``kernels.BATCH_BYTES``, so that small
    lanes of several blocks, or long pairs of one lane each, share fills.
    Every error message reads ``pair <id>: ...``.  A scoring error fails
    the pairs left in its block; an alignment error fails the pairs of
    the ``kept_cells`` call it happened in.
    """
    outcomes: list = [None] * len(pairs)
    shapes = [(len(pair.source.sentences), len(pair.target.sentences)) for pair in pairs]
    trial = [(config.threshold, config.gap_penalty)]
    waiting: list[int] = []  # pairs scored but not yet aligned
    matrices: list[np.ndarray] = []

    def align_waiting() -> None:
        try:
            for k, cells in zip(waiting, kept_cells(matrices, trial, config, engine)):
                source, target = pairs[k].source.sentences, pairs[k].target.sentences
                outcomes[k] = ([(score, source[i], target[j]) for score, i, j in cells], None)
        except Exception as exc:  # the run continues past failing pairs
            for k in waiting:
                outcomes[k] = (None, f"pair {pairs[k].topic_id}: {exc}")
        waiting.clear()
        matrices.clear()

    size = 0  # of the waiting lanes' fills, each alone
    for block in pair_blocks(shapes):
        kept: list[int] = []
        encoded = []
        for k in range(block.start, block.stop):
            source, target = pairs[k].source.sentences, pairs[k].target.sentences
            try:
                encoded.append(encode_pair(lexicon.compiled(), source, target))
            except ValueError as exc:
                outcomes[k] = (None, f"pair {pairs[k].topic_id}: {exc}")
            else:
                kept.append(k)
        if not kept:
            continue
        try:
            scored = score_pairs(model, lexicon, encoded)
        except Exception as exc:  # the run continues past failing pairs
            for k in kept:
                outcomes[k] = (None, f"pair {pairs[k].topic_id}: {exc}")
            continue
        added = sum(kernels.fill_bytes(*shapes[k], 1, 1) for k in kept)
        if waiting and size + added > kernels.BATCH_BYTES:
            align_waiting()
            size = 0
        waiting.extend(kept)
        matrices.extend(scored)
        size += added
    align_waiting()
    return outcomes


def mine_document_pair(
    model: SimilarityModel,
    lexicon: Lexicon,
    pair: DocumentPair,
    config: MiningConfig,
    engine: str = "nw",
) -> list[tuple[float, str, str]]:
    """Mined sentence pairs of one document pair, with similarity scores:
    the one-pair case of ``_mine_pairs``, raising its error as a
    ``ValueError``."""
    ((rows, error),) = _mine_pairs(model, lexicon, [pair], config, engine)
    if error is not None:
        raise ValueError(error)
    return rows


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
