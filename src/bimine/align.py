"""Sentence-sequence alignment engines and document-pair mining.

A document pair is scored into an N x M similarity matrix (one cell per
sentence pair, values in [0, 1]) by ``classifier.score_pairs``, which
computes the features of whole row blocks with numpy and matches scoring
each cell on its own bit for bit.  Cell values are mapped affinely onto
[mismatch_cost, match_bonus] and an alignment maximizing total mapped
score minus gap penalties is found by one of two engines:

* ``nw_align``    -- dynamic programming: one table fill (a numpy
  anti-diagonal sweep, see ``kernels``) and a tie-ordered traceback
  that walks the table's moves and records every step (``_steps``);
* ``astar_align`` -- one best-first search over the alignment grid
  with two move sets.  Constrained to right/down/diagonal moves it
  matches the dynamic program; unconstrained it may also step left at
  no cost, re-entering earlier columns, which reproduces the repetition
  artifact of greedy sequence aligners that skip the monotonicity
  requirement.

``bimine bench`` times both engines, by name (``cli._CLI_ENGINES``).

Matches above a confidence threshold become mined sentence pairs.
Mining and tuning align through one walker, ``kept_cells``, by the
dynamic program: its lanes are the score matrices of document pairs
with one (threshold, gap penalty) trial, or one matrix with many
trials.  It fills lanes of similar shape together in bounded groups
(``kernels.fill``, which keeps only each cell's traceback moves) and
walks each lane's moves for its matched cells, so no ``Alignment`` is
built.

Corpus mining fans document pairs out over worker processes; output
order follows input order regardless of completion order, so results
are identical for any worker count.  A worker that dies costs only the
pairs of the chunk that killed it.  Within a worker (or the serial run)
document pairs are mined in blocks of whole pairs (``_mine_pairs``): one
``classifier.score_pairs`` call per block, which tokenizes the block's
sentences in one pass and scores them in another, then one
``kept_cells`` call per run of consecutive blocks whose fills, each
alone, fit in ``kernels.BATCH_BYTES``.  ``mine_document_pair`` is its
one-pair case.
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
from .classifier import SimilarityModel, pair_blocks, runs, score_pairs
from .corpus import DocumentPair
from .lexicon import Lexicon


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


def _validate_scores(matrices: Sequence[np.ndarray]) -> list[np.ndarray]:
    # Each matrix as C-contiguous float64; every shape is checked, then
    # the range of all their values at once (no matrices, nothing to check).
    sims = [np.ascontiguousarray(matrix, dtype=np.float64) for matrix in matrices]
    if any(sim.ndim != 2 or sim.shape[0] == 0 or sim.shape[1] == 0 for sim in sims):
        raise ValueError("score matrix must be a non-empty 2-D array")
    values = np.concatenate([sim.ravel() for sim in sims]) if sims else np.zeros(1)
    # A NaN makes both comparisons false, and an infinity fails one.
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError("score matrix values must be finite and lie in [0, 1]")
    return sims


def build_score_matrix(
    model: SimilarityModel,
    lexicon: Lexicon,
    source_sentences: Sequence[str],
    target_sentences: Sequence[str],
) -> np.ndarray:
    """Similarity of every source sentence against every target sentence."""
    if not source_sentences or not target_sentences:
        raise ValueError("both sentence sequences must be non-empty")
    (matrix,) = score_pairs(model, lexicon, [(source_sentences, target_sentences)])
    if isinstance(matrix, ValueError):
        raise matrix
    return matrix


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


def _steps(moves: np.ndarray) -> list[Step]:
    """Every step of the walk of ``_matches`` over lane 0 of ``moves``, as
    ``kernels.fill`` returns it for one ``(n, m)`` lane: a ``Match`` for
    each diagonal move, a ``GapSource`` for each up move and a
    ``GapTarget`` otherwise, then the gaps left once a side is used up."""
    diag, up = memoryview(moves[0, :, :, 0]), memoryview(moves[1, :, :, 0])
    n, m = diag.shape[0] - 1, diag.shape[1] - 1
    steps: list[Step] = []
    i = j = 0
    while i < n and j < m:
        if diag[n - i, m - j]:
            steps.append(Match(i, j))
            i += 1
            j += 1
        elif up[n - i, m - j]:
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

    One fill (``kernels.fill``) of the reversed problem; the steps of the
    ``Alignment`` are recorded by walking its moves as ``_matches`` does
    (``_steps``), and its score is the fill's.
    """
    (sim,) = _validate_scores([scores])
    mismatch, bonus, gap = config.mismatch_cost, config.match_bonus, config.gap_penalty
    moves, final = kernels.fill([sim[::-1, ::-1]], mismatch, bonus, [gap])
    return Alignment(steps=tuple(_steps(moves)), score=float(final[0]))


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
    reaches it.  A move is taken only if the goal stays within the cap
    from where it lands, so a cell's best score never rests on a path
    that cannot finish and the search always reaches the goal.
    """
    (sim,) = _validate_scores([scores])
    n, m = sim.shape
    bonus = config.match_bonus
    mismatch = config.mismatch_cost
    gap = config.gap_penalty
    h_bonus = max(bonus, mismatch, 0.0)  # the most one step can collect
    depth_cap = 2 * (n + m)

    def h(i: int, j: int) -> float:
        if constrained:
            # Optimistic completion: fewest possible remaining steps, each
            # collecting the most a mapped cell can reach.
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
            if depth + 1 + (n - ni) + (m - nj) > depth_cap:
                continue  # the goal is out of reach within the cap
            if ng > g_best.get((ni, nj), -np.inf):
                g_best[(ni, nj)] = ng
                parent[(ni, nj)] = (i, j, step)
                counter += 1
                heapq.heappush(heap, (-(ng + h(ni, nj)), counter, ni, nj, ng, depth + 1))
    raise RuntimeError("search exhausted without reaching the goal")


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
) -> list[list[tuple[float, int, int]]]:
    """For each lane in order, the matched cells ``(score, i, j)`` of its
    alignment whose score reaches the lane's threshold.

    Lanes broadcast as numpy's do: K score matrices with one
    ``(threshold, gap penalty)`` trial (mined pairs), one matrix with T
    trials (tuning), or K of each.  A lane's cells equal
    ``filter_by_threshold`` of ``nw_align`` with ``config`` but the
    trial's threshold and gap penalty.  Lanes are filled together
    (``kernels.fill``) in the groups of ``_lane_groups`` and each lane's
    moves are walked in place for its matches at or above its threshold
    only (``_matches``), so memory stays bounded and no ``Alignment`` is
    built.
    """
    sims = _validate_scores(matrices)
    thresholds = [float(threshold) for threshold, _ in trials]
    gaps = [float(gap) for _, gap in trials]
    if not all(math.isfinite(gap) and gap >= 0.0 for gap in gaps):
        raise ValueError("gap penalties must be finite and >= 0")
    (lanes,) = np.broadcast_shapes((len(sims),), (len(gaps),))
    # Lane l reads matrix l and trial l, or the only one given.
    k, t = len(sims), len(gaps)
    mismatch, bonus = config.mismatch_cost, config.match_bonus
    reversed_sims = [sim[::-1, ::-1] for sim in sims]
    cells: list = [None] * lanes
    for group in _lane_groups([sims[lane % k].shape for lane in range(lanes)], k > 1):
        moves, _ = kernels.fill(
            [reversed_sims[lane] for lane in group] if k > 1 else reversed_sims,
            mismatch,
            bonus,
            [gaps[lane] for lane in group] if t > 1 else gaps,
        )
        for slot, lane in enumerate(group):
            cells[lane] = _matches(moves, slot, sims[lane % k], thresholds[lane % t])
    return cells


@dataclass(frozen=True)
class MiningOutcome:
    rows: tuple[tuple[float, str, str], ...]
    failures: tuple[tuple[str, str], ...]  # (topic_id, error message)


_POOL_STATE: dict = {}

WORKER_DIED = "worker process died"


def _pool_init(
    model: SimilarityModel,
    lexicon: Lexicon,
    pairs: Sequence[DocumentPair],
    config: MiningConfig,
) -> None:
    _POOL_STATE["args"] = (model, lexicon, pairs, config)


def _mine_pairs(
    model: SimilarityModel,
    lexicon: Lexicon,
    pairs: Sequence[DocumentPair],
    config: MiningConfig,
) -> list[list[tuple[float, str, str]] | str]:
    """Mined rows or an error message for each pair, in order.

    The one mining path of the serial run, of every pool worker and of
    ``mine_document_pair``.  Pairs are taken in the blocks of
    ``classifier.pair_blocks``, and each block is tokenized and scored
    by one ``score_pairs`` call; a pair with a sentence without tokens
    gets its error from that call and leaves the block.  Each run of
    blocks (``classifier.runs``) whose pairs' fills, each alone, fit in
    ``kernels.BATCH_BYTES`` is aligned by one ``kept_cells`` call, one
    lane per pair, down to each pair's matched cells at or above the
    threshold, so small lanes of several blocks, or long pairs of one
    lane each, share fills.  Every error message reads ``pair <id>:
    ...``.  A scoring error fails the pairs of its block; an alignment
    error fails the scored pairs of its run.
    """
    outcomes: list = [None] * len(pairs)
    sentences = [(pair.source.sentences, pair.target.sentences) for pair in pairs]
    shapes = [(len(sources), len(targets)) for sources, targets in sentences]
    trial = [(config.threshold, config.gap_penalty)]
    blocks = list(pair_blocks(shapes))
    block_bytes = [sum(kernels.fill_bytes(n, m, 1, 1) for n, m in shapes[b]) for b in blocks]
    for run in runs(block_bytes, kernels.BATCH_BYTES):
        scored: dict[int, np.ndarray] = {}  # score matrices of the run's pairs
        for block in blocks[run]:
            try:
                matrices = score_pairs(model, lexicon, sentences[block])
            except Exception as exc:  # mining continues past failing pairs
                matrices = [exc] * (block.stop - block.start)
            for k, matrix in zip(range(block.start, block.stop), matrices):
                if isinstance(matrix, Exception):
                    outcomes[k] = f"pair {pairs[k].topic_id}: {matrix}"
                else:
                    scored[k] = matrix
        try:
            for k, cells in zip(scored, kept_cells(list(scored.values()), trial, config)):
                source, target = sentences[k]
                outcomes[k] = [(score, source[i], target[j]) for score, i, j in cells]
        except Exception as exc:  # mining continues past failing pairs
            for k in scored:
                outcomes[k] = f"pair {pairs[k].topic_id}: {exc}"
    return outcomes


def mine_document_pair(
    model: SimilarityModel,
    lexicon: Lexicon,
    pair: DocumentPair,
    config: MiningConfig,
) -> list[tuple[float, str, str]]:
    """Mined sentence pairs of one document pair, with similarity scores:
    the one-pair case of ``_mine_pairs``, raising its error as a
    ``ValueError``."""
    (outcome,) = _mine_pairs(model, lexicon, [pair], config)
    if isinstance(outcome, str):
        raise ValueError(outcome)
    return outcome


def _pool_mine(chunk: range):
    model, lexicon, pairs, config = _POOL_STATE["args"]
    return _mine_pairs(model, lexicon, pairs[chunk.start : chunk.stop], config)


def _pool_results(chunks: list[range], workers: int, initargs: tuple) -> list:
    """Outcomes of each chunk, a range of positions in the pairs of
    ``initargs``, from one fresh pool; ``None`` for every chunk whose
    result had not arrived when a worker process died.

    The pool forks its workers, which inherit ``initargs`` (the model,
    the lexicon, the pairs and the config) in memory, so only the
    ranges and the outcomes are pickled.
    """
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
) -> MiningOutcome:
    """Mine document pairs across ``config.workers`` worker processes.

    The model, the lexicon and the pairs are shared read-only with the
    forked workers, which each mine chunks of consecutive pairs, sent as
    ranges of positions; output concatenation follows the input pair
    order whatever the completion order, and failing pairs are reported
    and skipped.  A worker process that dies (out of memory, a signal)
    breaks the pool, which fails every chunk of pairs still pending;
    each of those chunks is rerun once, alone in a fresh one-process
    pool, in input order.  Only the pairs of a chunk that kills its
    worker again are reported, as ``worker process died``.  Parallelism
    comes from the pair-level fan-out only; every alignment runs on one
    thread.
    """
    workers = min(config.workers, max(len(pairs), 1))
    if workers <= 1:
        outcomes = _mine_pairs(model, lexicon, pairs, config)
    else:
        outcomes = []
        chunksize = max(1, len(pairs) // (workers * 4))
        positions = range(len(pairs))
        chunks = [positions[k : k + chunksize] for k in positions[::chunksize]]
        initargs = (model, lexicon, pairs, config)
        for chunk, result in zip(chunks, _pool_results(chunks, workers, initargs)):
            if result is None:
                # Alone, a chunk that kills its worker takes no other pairs with it.
                (result,) = _pool_results([chunk], 1, initargs)
            outcomes.extend(result if result is not None else [WORKER_DIED] * len(chunk))

    mined: list[tuple[float, str, str]] = []
    failures: list[tuple[str, str]] = []
    for pair, outcome in zip(pairs, outcomes):
        if isinstance(outcome, str):
            failures.append((pair.topic_id, outcome))
        else:
            mined.extend(outcome)
    return MiningOutcome(rows=tuple(mined), failures=tuple(failures))
