"""Alignment engines: optimality, oracles, demos and mining."""

import os
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimine import align, classifier, kernels
from bimine.align import (
    Alignment,
    GapSource,
    GapTarget,
    Match,
    MiningConfig,
    astar_align,
    build_score_matrix,
    filter_by_threshold,
    kept_cells,
    mine_corpus,
    mine_document_pair,
    nw_align,
    nw_align_wavefront,
)
from bimine.classifier import (
    BLOCK_CELLS,
    SimilarityModel,
    grid_runs,
    pair_blocks,
    score_pairs,
)
from bimine.corpus import Document, DocumentPair
from bimine.text import tokenize
from bimine.demos import (
    DEMO_CONFIG,
    SYMBOL_SOURCE,
    SYMBOL_TARGET,
    WORD_SOURCE,
    WORD_TARGET,
    exact_match_matrix,
    render_alignment,
)

from conftest import SOURCE_VOCAB, TARGET_VOCAB, make_mining_pair, make_parallel_sentences
from oracles import (
    brute_force_best_score,
    extract_features,
    lexicon_from_table,
    reference_dp_table,
    reference_mine_pair,
    reference_moves,
    reference_score_matrix,
    reference_traceback,
)

EXACT_CONFIG = MiningConfig(threshold=0.0, gap_penalty=2.0, match_bonus=1.0, mismatch_cost=-1.0)


def random_exact_instance(rng, max_len=7, alphabet=3):
    n = int(rng.integers(1, max_len + 1))
    m = int(rng.integers(1, max_len + 1))
    source = rng.integers(0, alphabet, size=n)
    target = rng.integers(0, alphabet, size=m)
    return (source[:, None] == target[None, :]).astype(np.float64)


def gap_count(alignment: Alignment) -> int:
    return sum(1 for step in alignment.steps if not isinstance(step, Match))


def match_score_sum(alignment: Alignment, sim, config: MiningConfig) -> float:
    total = 0.0
    for step in alignment.steps:
        if isinstance(step, Match):
            total += config.mismatch_cost + sim[step.i, step.j] * (
                config.match_bonus - config.mismatch_cost
            )
    return total


class TestNwAlign:
    def test_identical_sequences_all_match(self):
        sim = np.eye(5)
        config = MiningConfig(gap_penalty=1.0)
        alignment = nw_align(sim, config)
        assert alignment.steps == tuple(Match(i, i) for i in range(5))
        assert alignment.score == 5.0

    def test_score_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            sim = random_exact_instance(rng)
            expected = brute_force_best_score(
                sim, EXACT_CONFIG.match_bonus, EXACT_CONFIG.mismatch_cost, EXACT_CONFIG.gap_penalty
            )
            assert nw_align(sim, EXACT_CONFIG).score == expected

    def test_agrees_with_reference_table_on_floats(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sim = rng.random((int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            config = MiningConfig(gap_penalty=float(rng.uniform(0, 3)))
            table = reference_dp_table(
                sim[::-1, ::-1], config.mismatch_cost, config.match_bonus, config.gap_penalty
            )
            assert nw_align(sim, config).score == pytest.approx(table[-1, -1], abs=1e-12)

    def test_score_consistent_with_steps(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            sim = rng.random((int(rng.integers(1, 15)), int(rng.integers(1, 15))))
            config = MiningConfig(gap_penalty=float(rng.uniform(0, 3)))
            alignment = nw_align(sim, config)
            expected = match_score_sum(alignment, sim, config) - config.gap_penalty * gap_count(
                alignment
            )
            assert alignment.score == pytest.approx(expected, abs=1e-9)

    def test_monotone_alignment_never_repeats_indices(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            sim = rng.random((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
            alignment = nw_align(sim, MiningConfig())
            source_seen = [s.i for s in alignment.steps if not isinstance(s, GapTarget)]
            target_seen = [s.j for s in alignment.steps if not isinstance(s, GapSource)]
            assert source_seen == sorted(set(source_seen))
            assert target_seen == sorted(set(target_seen))

    def test_raising_gap_penalty_never_adds_gaps(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            sim = rng.random((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            counts = []
            for penalty in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0):
                counts.append(gap_count(nw_align(sim, MiningConfig(gap_penalty=penalty))))
            assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            nw_align(np.zeros((0, 3)), MiningConfig())
        with pytest.raises(ValueError):
            nw_align(np.array([[0.5, 1.5]]), MiningConfig())
        with pytest.raises(ValueError):
            nw_align(np.array([[np.nan]]), MiningConfig())


def assert_lane_equals_oracle(moves, scores, lane, sim, mismatch, bonus, gap):
    """Lane ``lane`` of a fill holds the moves and final score of
    ``sim``'s plain-loop table."""
    n, m = sim.shape
    table = reference_dp_table(sim, mismatch, bonus, gap)
    diag, up = reference_moves(table, sim, mismatch, bonus, gap)
    assert np.array_equal(moves[0, 1 : n + 1, 1 : m + 1, lane], diag), (n, m, gap)
    assert np.array_equal(moves[1, 1 : n + 1, 1 : m + 1, lane], up), (n, m, gap)
    assert scores[lane] == table[n, m], (n, m, gap)


def assert_lane_equals_alone(moves, scores, lane, sim, mismatch, bonus, gap):
    """Lane ``lane`` of a fill equals ``sim`` filled alone for ``gap``."""
    n, m = sim.shape
    alone, (score,) = kernels.fill([sim], mismatch, bonus, [gap])
    region = np.ascontiguousarray(moves[:, 1 : n + 1, 1 : m + 1, lane])
    assert region.tobytes() == np.ascontiguousarray(alone[:, 1:, 1:, 0]).tobytes()
    assert scores[lane].tobytes() == score.tobytes()


def lanes_per_run(n, m):
    """The most lanes of one (n, m) matrix that one fill may hold."""
    lanes = 1
    while kernels.fill_bytes(n, m, lanes + 1, 1) <= kernels.BATCH_BYTES:
        lanes += 1
    return lanes


class TestFillBatch:
    """``kernels.fill`` of one matrix for several gap penalties (tuning's
    lanes): each lane holds the moves and score of the plain-loop table."""

    GAPS = (0.0, 0.6, 2.0, 0.25, 4.75)

    def test_every_table_matches_oracle(self):
        rng = np.random.default_rng(41)
        shapes = [(1, 1), (1, 7), (7, 1), (1, 30), (30, 1), (2, 2)] + [
            (int(rng.integers(1, 25)), int(rng.integers(1, 25))) for _ in range(40)
        ]
        for n, m in shapes:
            sim = rng.random((n, m)) if rng.random() < 0.5 else rng.integers(0, 3, (n, m)) / 2.0
            mismatch, bonus = float(rng.uniform(-2, 0)), float(rng.uniform(0, 2))
            moves, scores = kernels.fill([sim], mismatch, bonus, self.GAPS)
            assert moves.shape == (2, n + 1, m + 1, len(self.GAPS))
            assert moves.flags.c_contiguous and moves.dtype == bool
            assert scores.shape == (len(self.GAPS),)
            for t, gap in enumerate(self.GAPS):
                assert_lane_equals_oracle(moves, scores, t, sim, mismatch, bonus, gap)

    def test_sequential_is_the_one_gap_batch(self):
        # fill_sequential keeps every diagonal of the same sweep: its table
        # gives the moves and score of the one-lane fill.
        sim = np.random.default_rng(43).random((9, 13))
        table = kernels.fill_sequential(sim, -1.0, 1.0, 0.6)
        assert table.shape == (10, 14)
        moves, (score,) = kernels.fill([sim], -1.0, 1.0, [0.6])
        diag, up = reference_moves(table, sim, -1.0, 1.0, 0.6)
        assert np.array_equal(moves[0, 1:, 1:, 0], diag)
        assert np.array_equal(moves[1, 1:, 1:, 0], up)
        assert score.tobytes() == table[-1, -1].tobytes()

    def test_batch_larger_than_the_cell_cap(self):
        # More lanes than one run may hold: the fill itself does not split.
        rng = np.random.default_rng(47)
        sim = rng.random((40, 50))
        gaps = rng.uniform(0.0, 5.0, 2 * lanes_per_run(40, 50) + 3)
        moves, scores = kernels.fill([sim], -1.0, 1.0, gaps)
        assert moves.shape == (2, 41, 51, len(gaps))
        for t in (0, len(gaps) // 2, len(gaps) - 1):
            assert_lane_equals_oracle(moves, scores, t, sim, -1.0, 1.0, gaps[t])


def random_sims(rng, shapes):
    return [
        rng.random(shape) if rng.random() < 0.5 else rng.integers(0, 3, shape) / 2.0
        for shape in shapes
    ]


class TestFillMany:
    """``kernels.fill`` of several padded matrices (a mining block's
    lanes): each lane's region holds the moves and score of the
    plain-loop table and of the matrix filled alone."""

    SHAPES = [(1, 1), (3, 7), (7, 3), (12, 5), (2, 15), (15, 14), (1, 9), (9, 1)]

    @pytest.mark.parametrize("gap", [0.0, 0.6, 2.0])
    def test_each_region_matches_oracle(self, gap):
        rng = np.random.default_rng(53)
        for _ in range(10):
            order = rng.permutation(len(self.SHAPES))
            sims = random_sims(rng, [self.SHAPES[k] for k in order])
            mismatch, bonus = float(rng.uniform(-2, 0)), float(rng.uniform(0, 2))
            moves, scores = kernels.fill(sims, mismatch, bonus, [gap])
            assert moves.shape == (2, 16, 16, len(sims)) and moves.flags.c_contiguous
            for k, sim in enumerate(sims):
                assert_lane_equals_oracle(moves, scores, k, sim, mismatch, bonus, gap)
                assert_lane_equals_alone(moves, scores, k, sim, mismatch, bonus, gap)

    def test_one_matrix_is_the_sequential_fill(self):
        sim = np.random.default_rng(59).random((6, 11))
        moves, (score,) = kernels.fill([sim], -1.0, 1.0, [0.6])
        table = kernels.fill_sequential(sim, -1.0, 1.0, 0.6)
        assert score.tobytes() == table[-1, -1].tobytes()
        diag, up = reference_moves(table, sim, -1.0, 1.0, 0.6)
        assert np.array_equal(moves[0, 1:, 1:, 0], diag)
        assert np.array_equal(moves[1, 1:, 1:, 0], up)

    def test_a_matrix_and_a_gap_per_lane(self):
        rng = np.random.default_rng(61)
        sims = random_sims(rng, self.SHAPES)
        gaps = rng.uniform(0.0, 5.0, len(sims))
        moves, scores = kernels.fill(sims, -1.0, 1.0, gaps)
        for k, (sim, gap) in enumerate(zip(sims, gaps)):
            assert_lane_equals_alone(moves, scores, k, sim, -1.0, 1.0, gap)

    def test_lanes_that_do_not_broadcast(self):
        with pytest.raises(ValueError):
            kernels.fill([np.eye(2), np.eye(3)], -1.0, 1.0, [0.5, 1.0, 2.0])


class TestFillBytes:
    """``kernels.fill_bytes`` bounds what ``kernels.fill`` allocates, as
    tracemalloc sees it (numpy reports its data buffers there too)."""

    SLACK = 16 * 1024

    @staticmethod
    def traced_peak(sims, gaps):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kernels.fill(sims, -1.0, 1.0, gaps)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "shape", [(1, 1), (2, 2), (1, 1000), (1000, 1), (3, 300), (300, 3), (84, 70)]
    )
    @pytest.mark.parametrize("lanes", [1, 3, 120])
    @pytest.mark.parametrize("own_matrices", [False, True])
    def test_peak_within_fill_bytes(self, shape, lanes, own_matrices):
        rng = np.random.default_rng(79)
        matrices = lanes if own_matrices else 1
        sims = [rng.random(shape) for _ in range(matrices)]
        gaps = rng.uniform(0.0, 5.0, 1 if own_matrices else lanes)
        peak = self.traced_peak(sims, gaps)
        assert peak <= kernels.fill_bytes(*shape, lanes, matrices) + self.SLACK

    @pytest.mark.parametrize("lanes", [120, 1000])
    def test_padded_lanes_within_fill_bytes(self, lanes):
        # A mining block: many small matrices of their own shapes, one gap.
        rng = np.random.default_rng(83)
        sims = random_sims(rng, [tuple(rng.integers(1, 12, 2)) for _ in range(lanes)])
        n, m = max(sim.shape[0] for sim in sims), max(sim.shape[1] for sim in sims)
        peak = self.traced_peak(sims, [0.6])
        assert peak <= kernels.fill_bytes(n, m, lanes, lanes) + self.SLACK


def nw_matches(sim, config):
    """Every matched cell (score, i, j) of ``nw_align``."""
    return filter_by_threshold(sim, nw_align(sim, config), 0.0)


def trials_of(gaps, threshold=0.0):
    return [(threshold, gap) for gap in gaps]


class TestNwAlignBatch:
    """``align.kept_cells`` of one matrix for many (threshold, gap) trials,
    the lanes of tuning: each equals aligning and filtering one trial
    alone."""

    def test_equals_nw_align_for_each_gap(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n, m = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            sim = rng.random((n, m)) if rng.random() < 0.5 else rng.integers(0, 2, (n, m)) * 1.0
            config = MiningConfig(
                match_bonus=float(rng.uniform(0, 2)), mismatch_cost=float(rng.uniform(-2, 0))
            )
            gaps = [0.0, *rng.uniform(0.0, 5.0, 6).tolist(), 1.0]
            thresholds = [0.0, *rng.uniform(0.0, 1.0, 6).tolist(), 1.0]
            trials = list(zip(thresholds, gaps))
            kept = list(kept_cells([sim], trials, config))
            assert kept == [
                filter_by_threshold(sim, nw_align(sim, replace(config, gap_penalty=g)), t)
                for t, g in trials
            ]

    def test_gaps_spanning_several_batches(self, monkeypatch):
        rng = np.random.default_rng(59)
        sim = rng.random((40, 50))
        per_batch = lanes_per_run(40, 50)
        gaps = rng.uniform(0.0, 5.0, 2 * per_batch + 7).tolist()
        lanes = []
        fill = kernels.fill

        def recorded_fill(sims, mismatch, bonus, gaps):
            lanes.append((len(sims), len(gaps)))
            return fill(sims, mismatch, bonus, gaps)

        monkeypatch.setattr(kernels, "fill", recorded_fill)
        kept = list(kept_cells([sim], trials_of(gaps), MiningConfig()))
        assert lanes == [(1, per_batch), (1, per_batch), (1, 7)]
        assert len(kept) == len(gaps)
        for k in (0, per_batch - 1, per_batch, 2 * per_batch, len(gaps) - 1):
            assert kept[k] == nw_matches(sim, MiningConfig(gap_penalty=gaps[k]))

    def test_no_gaps_no_alignments(self):
        assert list(kept_cells([np.eye(3)], [], MiningConfig())) == []

    @pytest.mark.parametrize("gap", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_gaps(self, gap):
        with pytest.raises(ValueError, match="gap penalties"):
            list(kept_cells([np.eye(3)], trials_of([1.0, gap]), MiningConfig()))

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            list(kept_cells([np.array([[0.5, 1.5]])], trials_of([1.0]), MiningConfig()))
        # The range is checked once over all matrices, after every shape.
        several = [np.eye(3), np.full((2, 4), 0.5), np.array([[0.5, np.nan]])]
        with pytest.raises(ValueError, match=r"^score matrix values must be finite"):
            kept_cells(several, trials_of([1.0]), MiningConfig())
        with pytest.raises(ValueError, match=r"^score matrix must be a non-empty 2-D"):
            kept_cells([*several, np.zeros((0, 3))], trials_of([1.0]), MiningConfig())


class TestKeptCells:
    """``align.kept_cells`` over several matrices, the lanes of a mining
    block."""

    def test_each_lane_equals_its_own_engine_call(self):
        rng = np.random.default_rng(67)
        sims = random_sims(rng, [(int(rng.integers(1, 12)), int(rng.integers(1, 12))) for _ in range(30)])
        config = MiningConfig(threshold=0.4, gap_penalty=0.7)
        per_matrix = list(kept_cells(sims, [(0.4, 0.7)], config))
        assert per_matrix == [filter_by_threshold(sim, nw_align(sim, config), 0.4) for sim in sims]
        trials = [(float(t), float(g)) for t, g in rng.uniform(0.0, 1.0, (len(sims), 2))]
        per_lane = list(kept_cells(sims, trials, config))
        assert per_lane == [
            filter_by_threshold(sim, nw_align(sim, replace(config, gap_penalty=g)), t)
            for sim, (t, g) in zip(sims, trials)
        ]

    def test_thresholds_equal_to_cell_values(self):
        # The walk keeps a cell whose score equals its lane's threshold,
        # as ``filter_by_threshold`` does (``>=``).
        rng = np.random.default_rng(73)
        config = MiningConfig(gap_penalty=0.7)

        def oracle(sim, threshold, gap):
            alignment = nw_align(sim, replace(config, gap_penalty=gap))
            return filter_by_threshold(sim, alignment, threshold)

        at_threshold = 0
        # One matrix, a trial per value of its cells and gap penalty.
        for sim in random_sims(rng, [(9, 11), (12, 7), (1, 6)]):
            trials = [(v, g) for v in np.unique(sim).tolist() for g in (0.0, 0.3, 0.7, 2.0)]
            kept = list(kept_cells([sim], trials, config))
            assert kept == [oracle(sim, t, g) for t, g in trials]
            at_threshold += sum(
                score == t for cells, (t, _) in zip(kept, trials) for score, _, _ in cells
            )
        # Many matrices, one trial whose threshold each of them holds.
        shapes = [(int(rng.integers(1, 12)), int(rng.integers(1, 12))) for _ in range(40)]
        sims = random_sims(rng, shapes)
        for sim in sims:
            sim[rng.integers(sim.shape[0]), rng.integers(sim.shape[1])] = 0.5
        for gap in (0.0, 0.7):
            kept = list(kept_cells(sims, [(0.5, gap)], config))
            assert kept == [oracle(sim, 0.5, gap) for sim in sims]
            at_threshold += sum(score == 0.5 for cells in kept for score, _, _ in cells)
        assert at_threshold > 0

    def test_wide_lane_runs_alone(self, monkeypatch):
        # A lane over the byte cap is filled alone; the small lanes after it
        # share one fill.
        rng = np.random.default_rng(71)
        sims = [rng.random((500, 500))] + random_sims(rng, [(2, 3)] * 50)
        assert kernels.fill_bytes(500, 500, 1, 1) > kernels.BATCH_BYTES
        shapes = []
        fill = kernels.fill

        def recorded_fill(sims, mismatch, bonus, gaps):
            moves, scores = fill(sims, mismatch, bonus, gaps)
            shapes.append(moves.shape)
            return moves, scores

        monkeypatch.setattr(kernels, "fill", recorded_fill)
        config = MiningConfig(threshold=0.0)
        kept = list(kept_cells(sims, [(0.0, 2.0)], config))
        assert shapes == [(2, 501, 501, 1), (2, 3, 4, 50)]
        assert kept == [nw_matches(sim, config) for sim in sims]

    def test_groups_close_before_padding_past_their_cells(self):
        # One wide lane and many tiny ones: the tiny lanes are not padded
        # to the wide one's width, and are filled together.
        shapes = [(1, 1000)] + [(1, 1)] * 1000
        assert list(align._lane_groups(shapes, True)) == [[0], list(range(1, 1001))]
        # Taken largest first, the wide lane leads wherever it stands.
        assert list(align._lane_groups(shapes[::-1], True)) == [[1000], list(range(1000))]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 300), st.integers(1, 300)), min_size=1, max_size=60),
        st.booleans(),
    )
    def test_groups_bound_bytes_and_padding(self, shapes, own_matrices):
        groups = list(align._lane_groups(shapes, own_matrices))
        assert sorted(lane for group in groups for lane in group) == list(range(len(shapes)))
        for group in groups:
            lanes = [shapes[lane] for lane in group]
            n, m = max(r for r, _ in lanes), max(c for _, c in lanes)
            needed = sum((r + 1) * (c + 1) for r, c in lanes)
            assert (n + 1) * (m + 1) * len(lanes) <= 2 * needed
            size = kernels.fill_bytes(n, m, len(lanes), len(lanes) if own_matrices else 1)
            assert size <= kernels.BATCH_BYTES or len(lanes) == 1


TIE_GRIDS = ((0.0, 0.5, 1.0), (0.0, 1.0), tuple(k / 10 for k in range(11)))
TIE_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 9)),
    st.tuples(st.integers(1, 9), st.just(1)),
    st.tuples(st.integers(1, 7), st.integers(1, 7)),
)
GAPS = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1 / 3, 1.0, 2.0]), st.floats(0.0, 5.0))


@st.composite
def tie_heavy_instances(draw):
    """A small matrix on a coarse value grid, so that many paths tie,
    with its mapping and two gap penalties."""
    n, m = draw(TIE_SHAPES)
    grid = draw(st.sampled_from(TIE_GRIDS))
    values = draw(st.lists(st.sampled_from(grid), min_size=n * m, max_size=n * m))
    mismatch = draw(st.one_of(st.sampled_from([-1.0, 0.0, -100.0]), st.floats(-10.0, 0.0)))
    bonus = draw(st.one_of(st.sampled_from([1.0, 0.0, 0.5, 2.0]), st.floats(-1.0, 2.0)))
    return np.array(values).reshape(n, m), mismatch, bonus, draw(GAPS), draw(GAPS)


def oracle_steps(sim, mismatch, bonus, gap):
    dp_rev = kernels.fill_sequential(np.ascontiguousarray(sim[::-1, ::-1]), mismatch, bonus, gap)
    return reference_traceback(memoryview(dp_rev), memoryview(sim), mismatch, bonus, gap)


def matched_cells(sim, steps):
    """The (score, i, j) of each match step."""
    return [(float(sim[s.i, s.j]), s.i, s.j) for s in steps if isinstance(s, Match)]


class TestTraceback:
    """The match-only walk and the steps ``nw_align`` records on the same
    walk equal the traceback of the table (``oracles.reference_traceback``)."""

    @settings(max_examples=400, deadline=None)
    @given(tie_heavy_instances())
    # Without matches the walk's gaps are not all source-first: here a
    # source gap out of the last row follows a target gap ...
    @example((np.zeros((1, 6)), -100.0, 0.0, 0.1, 0.0))
    # ... and here the source gaps left once a target gap reaches the
    # last column.
    @example((np.zeros((6, 1)), -100.0, 0.0, 0.3, 0.0))
    @example((np.zeros((6, 7)), -100.0, 0.0, 0.3, 2.0))
    def test_steps_and_matches_equal_the_oracle(self, instance):
        sim, mismatch, bonus, gap, other = instance
        config = MiningConfig(match_bonus=bonus, mismatch_cost=mismatch, gap_penalty=gap)
        expected = oracle_steps(sim, mismatch, bonus, gap)
        assert nw_align(sim, config).steps == tuple(expected)
        assert list(kept_cells([sim], [(0.0, gap)], config)) == [matched_cells(sim, expected)]
        # Each lane of a batch table is walked in place.
        reversed_sim = np.ascontiguousarray(sim[::-1, ::-1])
        moves, _ = kernels.fill([reversed_sim], mismatch, bonus, [other, gap])
        assert align._matches(moves, 1, sim, -np.inf) == matched_cells(sim, expected)
        assert align._matches(moves, 0, sim, -np.inf) == matched_cells(
            sim, oracle_steps(sim, mismatch, bonus, other)
        )


@st.composite
def fill_instances(draw):
    """Lanes of one fill: K matrices (tie-grid or random values, padded to
    the largest shape) and T gap penalties, K and T broadcasting."""
    count = draw(st.integers(1, 4))
    k, t = draw(st.sampled_from([(count, 1), (1, count), (count, count)]))
    sims = []
    for _ in range(k):
        n, m = draw(TIE_SHAPES)
        grid = draw(st.one_of(st.sampled_from(TIE_GRIDS), st.none()))
        value = st.floats(0.0, 1.0) if grid is None else st.sampled_from(grid)
        values = draw(st.lists(value, min_size=n * m, max_size=n * m))
        sims.append(np.array(values).reshape(n, m))
    gaps = draw(st.lists(GAPS, min_size=t, max_size=t))
    mismatch = draw(st.one_of(st.sampled_from([-1.0, 0.0, -100.0]), st.floats(-10.0, 0.0)))
    bonus = draw(st.one_of(st.sampled_from([1.0, 0.0, 0.5, 2.0]), st.floats(-1.0, 2.0)))
    return sims, gaps, mismatch, bonus


class TestMoves:
    """Every lane of ``kernels.fill`` holds the moves and final score that
    the plain-loop table (``oracles.reference_dp_table``) gives, which are
    the equalities the traceback tested on the table: a cell equals its
    diagonal candidate, or else its up candidate."""

    @settings(max_examples=300, deadline=None)
    @given(fill_instances())
    @example(([np.zeros((1, 6)), np.ones((6, 1))], [0.0], -100.0, 0.0))
    @example(([np.full((3, 4), 0.5)], [0.0, 1 / 3, 2.0], -1.0, 1.0))
    def test_moves_and_scores_equal_the_oracle(self, instance):
        sims, gaps, mismatch, bonus = instance
        moves, scores = kernels.fill(sims, mismatch, bonus, gaps)
        lanes = max(len(sims), len(gaps))
        n = max(sim.shape[0] for sim in sims)
        m = max(sim.shape[1] for sim in sims)
        assert moves.shape == (2, n + 1, m + 1, lanes) and scores.shape == (lanes,)
        for lane in range(lanes):
            sim, gap = sims[lane % len(sims)], gaps[lane % len(gaps)]
            assert_lane_equals_oracle(moves, scores, lane, sim, mismatch, bonus, gap)
            table = reference_dp_table(sim, mismatch, bonus, gap)
            diag, up = reference_moves(table, sim, mismatch, bonus, gap)
            value = table[1:, 1:]
            cost = mismatch + sim * (bonus - mismatch)
            assert np.array_equal(diag, value == cost + table[:-1, :-1])
            assert np.array_equal(up[~diag], (value == table[:-1, 1:] - gap)[~diag])


class TestWavefront:
    """The retired anti-diagonal engine's names stay importable and
    delegate to the single fill, whatever the worker count."""

    def test_single_worker_equals_sequential(self):
        rng = np.random.default_rng(23)
        sim = rng.random((12, 9))
        config = MiningConfig(gap_penalty=1.3)
        assert nw_align_wavefront(sim, config, 1) == nw_align(sim, config)
        wave = kernels.fill_wavefront(sim, -1.0, 1.0, 1.3, 4)
        assert np.array_equal(wave, kernels.fill_sequential(sim, -1.0, 1.0, 1.3))

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_equivalence_on_random_instances(self, workers):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(1, 80))
            sim = rng.random((n, m))
            config = MiningConfig(gap_penalty=float(rng.uniform(0, 3)))
            sequential = nw_align(sim, config)
            wavefront = nw_align_wavefront(sim, config, workers)
            assert wavefront.score == sequential.score
            assert wavefront.steps == sequential.steps

    def test_demo_fixture_any_worker_count(self):
        sim = exact_match_matrix(SYMBOL_SOURCE, SYMBOL_TARGET)
        expected = nw_align(sim, DEMO_CONFIG)
        for workers in (1, 2, 4):
            assert nw_align_wavefront(sim, DEMO_CONFIG, workers) == expected


class TestAstar:
    def test_constrained_score_equals_dp(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            sim = random_exact_instance(rng)
            assert astar_align(sim, EXACT_CONFIG, constrained=True).score == nw_align(
                sim, EXACT_CONFIG
            ).score

    def test_constrained_score_on_float_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            sim = rng.random((int(rng.integers(1, 12)), int(rng.integers(1, 12))))
            config = MiningConfig(gap_penalty=float(rng.uniform(0, 3)))
            assert astar_align(sim, config, constrained=True).score == pytest.approx(
                nw_align(sim, config).score, abs=1e-9
            )

    def test_constrained_score_when_a_mismatch_pays_more(self):
        # With mismatch_cost above match_bonus a mapped cell can exceed the
        # match bonus, and the heuristic must still bound every step.
        rng = np.random.default_rng(43)
        for _ in range(300):
            sim = rng.random((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            config = MiningConfig(
                gap_penalty=float(rng.uniform(0, 3)),
                match_bonus=float(rng.uniform(-2, 1)),
                mismatch_cost=float(rng.uniform(0, 3)),
            )
            assert astar_align(sim, config, constrained=True).score == pytest.approx(
                nw_align(sim, config).score, abs=1e-9
            )

    def test_unconstrained_beats_monotone_when_revisits_pay(self):
        sim = exact_match_matrix(SYMBOL_SOURCE, SYMBOL_TARGET)
        free = astar_align(sim, DEMO_CONFIG, constrained=False)
        monotone = nw_align(sim, DEMO_CONFIG)
        assert free.score > monotone.score

    def test_unconstrained_never_below_monotone(self):
        # Monotone moves are a subset of the unconstrained move set, so
        # the unconstrained optimum can only be at least as good.
        rng = np.random.default_rng(73)
        for _ in range(40):
            sim = rng.random((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            config = MiningConfig(
                gap_penalty=float(rng.uniform(0, 3)),
                match_bonus=float(rng.uniform(0.5, 3)),
                mismatch_cost=float(rng.uniform(-3, 0)),
            )
            free = astar_align(sim, config, constrained=False)
            monotone = nw_align(sim, config)
            assert free.score >= monotone.score - 1e-9

    def test_unconstrained_source_indices_stay_monotone(self):
        # Only columns may be revisited; every source sentence is
        # consumed exactly once and in order.
        rng = np.random.default_rng(79)
        for _ in range(25):
            sim = rng.random((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            alignment = astar_align(sim, MiningConfig(), constrained=False)
            source_indices = [
                s.i for s in alignment.steps if not isinstance(s, GapTarget)
            ]
            assert source_indices == sorted(set(source_indices))


def replayed_score(alignment: Alignment, sim, mismatch: float, bonus: float, gap: float) -> float:
    """The score of ``alignment``'s steps, summed in order from 0.0."""
    g = 0.0
    for step in alignment.steps:
        if isinstance(step, Match):
            g = g + (mismatch + sim[step.i, step.j] * (bonus - mismatch))
        else:
            g = g - gap
    return g


class TestStepsGiveTheScore:
    """The steps every engine returns add up to the score it reports."""

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_instances())
    def test_replayed_steps_equal_the_score(self, instance):
        sim, mismatch, bonus, gap, _ = instance
        config = MiningConfig(match_bonus=bonus, mismatch_cost=mismatch, gap_penalty=gap)
        n, m = sim.shape
        # (alignment, tolerance, whether it uses every index once, in order);
        # the DP table sums suffixes, so its additions run in another order.
        for alignment, tolerance, monotone in (
            (nw_align(sim, config), 1e-9, True),
            (astar_align(sim, config, constrained=True), 0.0, True),
            (astar_align(sim, config, constrained=False), 0.0, False),
        ):
            replayed = replayed_score(alignment, sim, mismatch, bonus, gap)
            assert abs(replayed - alignment.score) <= tolerance
            if monotone:
                sources = [s.i for s in alignment.steps if not isinstance(s, GapTarget)]
                targets = [s.j for s in alignment.steps if not isinstance(s, GapSource)]
                assert sources == list(range(n)) and targets == list(range(m))


class TestDemoFixtures:
    def test_symbol_monotone_alignment(self):
        sim = exact_match_matrix(SYMBOL_SOURCE, SYMBOL_TARGET)
        source_line, target_line = render_alignment(
            nw_align(sim, DEMO_CONFIG), SYMBOL_SOURCE, SYMBOL_TARGET
        )
        assert target_line == "a, d, -, -, e, g, f"
        assert source_line == "a, d, c, d, e, -, -"

    def test_symbol_unconstrained_revisits_columns(self):
        sim = exact_match_matrix(SYMBOL_SOURCE, SYMBOL_TARGET)
        alignment = astar_align(sim, DEMO_CONFIG, constrained=False)
        source_line, target_line = render_alignment(alignment, SYMBOL_SOURCE, SYMBOL_TARGET)
        assert target_line == "a, d, a, d, e, g, f"
        assert source_line == "a, d, c, d, e, -, -"
        matched_targets = [s.j for s in alignment.steps if isinstance(s, Match)]
        assert len(matched_targets) != len(set(matched_targets))  # revisited columns

    def test_word_monotone_matches_exactly_three(self):
        sim = exact_match_matrix(WORD_SOURCE, WORD_TARGET)
        alignment = nw_align(sim, DEMO_CONFIG)
        matches = {
            (WORD_SOURCE[s.i], WORD_TARGET[s.j])
            for s in alignment.steps
            if isinstance(s, Match)
        }
        assert matches == {
            ("tablets", "tablets"),
            ("make", "make"),
            ("children", "children"),
        }

    def test_word_unconstrained_revisits_tablets_and_make(self):
        sim = exact_match_matrix(WORD_SOURCE, WORD_TARGET)
        alignment = astar_align(sim, DEMO_CONFIG, constrained=False)
        _, target_line = render_alignment(alignment, WORD_SOURCE, WORD_TARGET)
        assert target_line == "tablets, make, tablets, make, children, very, addicted"


class TestFilter:
    def test_zero_threshold_emits_every_match(self):
        rng = np.random.default_rng(43)
        sim = rng.random((6, 6))
        alignment = nw_align(sim, MiningConfig())
        emitted = filter_by_threshold(sim, alignment, 0.0)
        assert len(emitted) == sum(1 for s in alignment.steps if isinstance(s, Match))

    def test_impossible_threshold_emits_nothing(self):
        sim = np.full((3, 3), 0.9)
        alignment = nw_align(sim, MiningConfig())
        assert filter_by_threshold(sim, alignment, 1.0) == []

    def test_hand_picked_cells(self):
        sim = np.array([[0.9, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.7]])
        alignment = Alignment(steps=(Match(0, 0), Match(1, 1), Match(2, 2)), score=0.0)
        emitted = filter_by_threshold(sim, alignment, 0.5)
        assert emitted == [(0.9, 0, 0), (0.7, 2, 2)]

    def test_lowering_threshold_only_adds(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            sim = rng.random((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
            alignment = nw_align(sim, MiningConfig())
            high = filter_by_threshold(sim, alignment, 0.7)
            low = filter_by_threshold(sim, alignment, 0.3)
            assert set(high).issubset(set(low))
            assert all(score >= 0.7 for score, _, _ in high)

    def test_any_dtype_and_layout_emits_python_float64_scores(self):
        rng = np.random.default_rng(53)
        narrow = rng.random((9, 7)).astype(np.float32)
        wide = narrow.astype(np.float64)
        alignment = nw_align(wide, MiningConfig(gap_penalty=0.4))
        for threshold in (0.0, 0.5):
            expected = filter_by_threshold(wide, alignment, threshold)
            assert expected and all(type(score) is float for score, _, _ in expected)
            assert filter_by_threshold(narrow, alignment, threshold) == expected
            transposed = np.ascontiguousarray(wide.T).T
            assert not transposed.flags.c_contiguous
            emitted = filter_by_threshold(transposed, alignment, threshold)
            assert emitted == expected
            assert all(type(score) is float for score, _, _ in emitted)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MiningConfig(threshold=1.5)
        with pytest.raises(ValueError):
            MiningConfig(gap_penalty=-0.1)
        with pytest.raises(ValueError):
            MiningConfig(workers=0)

    @pytest.mark.parametrize("field", ["gap_penalty", "match_bonus", "mismatch_cost"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameter_names_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite"):
            MiningConfig(**{field: value})


class TestScoreMatrix:
    def test_row_vector_for_two_targets(self, toy_model, toy_lexicon):
        matrix = build_score_matrix(
            toy_model, toy_lexicon, ["domo kato"], ["house cat", "zork blip"]
        )
        assert matrix.shape == (1, 2)
        assert matrix[0, 0] > matrix[0, 1]

    def test_true_diagonal_dominates_rows(self, toy_model, toy_lexicon):
        rng = np.random.default_rng(53)
        pair, reference = make_mining_pair(rng, "probe", true_pairs=5, target_noise=0)
        matrix = build_score_matrix(
            toy_model, toy_lexicon, pair.source.sentences, pair.target.sentences
        )
        for i, j in reference:
            assert matrix[i, j] > matrix[i].mean()

    def test_untokenizable_sentence_reports_location(self, toy_model, toy_lexicon):
        with pytest.raises(ValueError, match="target sentence 1"):
            build_score_matrix(toy_model, toy_lexicon, ["domo"], ["house", "..."])

    def test_empty_sequence_rejected(self, toy_model, toy_lexicon):
        with pytest.raises(ValueError):
            build_score_matrix(toy_model, toy_lexicon, [], ["house"])


# Generated scoring inputs: two small vocabularies that share some words,
# lexicons with zero and absent-target entries, and arbitrary models.
SOURCE_WORDS = ("ka", "lo", "mi", "nu", "po", "same", "also")
TARGET_WORDS = ("ab", "cd", "ef", "gh", "ij", "same", "also")
ABSENT_WORDS = ("nowhere", "never")


def sentence_strategy(words):
    return st.lists(st.sampled_from(words), min_size=1, max_size=7).map(" ".join)


LEXICONS = st.dictionaries(
    st.sampled_from(SOURCE_WORDS + ABSENT_WORDS),
    st.dictionaries(
        st.sampled_from(TARGET_WORDS + ABSENT_WORDS),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        max_size=5,
    ),
    max_size=9,
).map(lexicon_from_table)

MODELS = st.builds(
    SimilarityModel,
    weights=st.tuples(*[st.floats(-50.0, 50.0)] * 6),
    bias=st.floats(-50.0, 50.0),
    sigmoid_a=st.floats(-200.0, -1e-6),
    sigmoid_b=st.floats(-50.0, 50.0),
    feature_means=st.tuples(*[st.floats(-2.0, 2.0)] * 6),
    feature_scales=st.tuples(*[st.floats(1e-3, 10.0)] * 6),
)


def assert_matches_oracle(model, lexicon, sources, targets):
    matrix = build_score_matrix(model, lexicon, sources, targets)
    expected = reference_score_matrix(model, lexicon, sources, targets)
    assert matrix.shape == expected.shape
    assert np.array_equal(matrix, expected)
    return matrix


class TestScoreMatrixOracle:
    """Block scoring equals the per-cell oracle bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        model=MODELS,
        lexicon=LEXICONS,
        sources=st.lists(sentence_strategy(SOURCE_WORDS), min_size=1, max_size=6),
        targets=st.lists(sentence_strategy(TARGET_WORDS), min_size=1, max_size=6),
    )
    def test_generated_inputs(self, model, lexicon, sources, targets):
        assert_matches_oracle(model, lexicon, sources, targets)

    def test_trained_model_on_mining_pair(self, toy_model, toy_lexicon):
        rng = np.random.default_rng(89)
        pair, _ = make_mining_pair(rng, "oracle", true_pairs=9, target_noise=4)
        assert_matches_oracle(toy_model, toy_lexicon, pair.source.sentences, pair.target.sentences)

    def test_zero_probability_entries(self, toy_model):
        # p = 0.0 neither covers a token nor makes a target reachable.
        lexicon = lexicon_from_table({"ka": {"ab": 0.0, "cd": 0.4}, "lo": {"ab": 0.0}})
        matrix = assert_matches_oracle(toy_model, lexicon, ["ka lo", "lo"], ["ab", "cd ab", "ef"])
        empty = lexicon_from_table({})
        only_zero = reference_score_matrix(toy_model, empty, ["lo"], ["ab", "cd ab", "ef"])
        assert np.array_equal(matrix[1], only_zero[0])

    def test_tokens_shared_across_languages(self, toy_model):
        lexicon = lexicon_from_table({"same": {"same": 0.7}, "ka": {"same": 0.2}})
        assert_matches_oracle(
            toy_model, lexicon, ["same ka", "same same", "ka"], ["same", "ab same cd", "ab"]
        )

    def test_repeated_tokens(self, toy_model):
        lexicon = lexicon_from_table({"ka": {"ab": 0.3, "cd": 0.9}, "lo": {"ab": 1.0}})
        assert_matches_oracle(
            toy_model, lexicon, ["ka ka ka lo", "lo lo"], ["ab ab cd", "cd cd cd cd", "ab"]
        )

    def test_translations_absent_from_the_document(self, toy_model):
        lexicon = lexicon_from_table(
            {"ka": {"nowhere": 0.9, "ab": 0.1}, "lo": {"never": 1.0}}
        )
        assert_matches_oracle(toy_model, lexicon, ["ka lo", "lo"], ["ab cd", "ef"])

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1), (1, 1)])
    def test_row_and_column_shapes(self, toy_model, toy_lexicon, shape):
        rng = np.random.default_rng(97)
        pair, _ = make_mining_pair(rng, "shape", true_pairs=7, target_noise=0)
        sources = pair.source.sentences[: shape[0]]
        targets = pair.target.sentences[: shape[1]]
        assert assert_matches_oracle(toy_model, toy_lexicon, sources, targets).shape == shape

    @pytest.mark.parametrize("shape", [(60, 50), (3, BLOCK_CELLS + 5)])
    def test_more_than_one_row_block(self, toy_model, toy_lexicon, shape):
        rng = np.random.default_rng(101)
        pair, _ = make_mining_pair(rng, "wide", true_pairs=shape[0], target_noise=0)
        targets = [pair.target.sentences[k % shape[0]] for k in range(shape[1])]
        assert shape[0] * shape[1] > BLOCK_CELLS
        assert_matches_oracle(toy_model, toy_lexicon, pair.source.sentences, targets)

    def test_sigmoid_saturates_on_both_sides(self, toy_lexicon):
        # Coverage between 0 and 1 spreads margins over +-3000, which
        # pushes z past +700 and -700.
        model = SimilarityModel(
            weights=(0.0, 3000.0, 3000.0, 0.0, 0.0, 0.0),
            bias=-3000.0,
            sigmoid_a=-1.0,
            sigmoid_b=0.0,
            feature_means=(0.0,) * 6,
            feature_scales=(1.0,) * 6,
        )
        rng = np.random.default_rng(103)
        pair, _ = make_mining_pair(rng, "saturate", true_pairs=6, target_noise=3)
        matrix = assert_matches_oracle(
            model, toy_lexicon, pair.source.sentences, pair.target.sentences
        )
        assert matrix.min() == 0.0 and matrix.max() == 1.0


SMALL_SHAPES = st.one_of(
    st.just((1, 1)),
    st.tuples(st.just(1), st.integers(1, 8)),
    st.tuples(st.integers(1, 8), st.just(1)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)
# Each above BLOCK_CELLS cells, so each forms a block of its own.
LARGE_SHAPES = st.sampled_from([(1, BLOCK_CELLS + 1), (BLOCK_CELLS + 3, 1), (47, 44)])


@st.composite
def sentence_pairs(draw):
    """1-40 pairs of sentence lists; sentences repeat from a small drawn
    pool per pair, so that large pairs stay cheap to generate."""
    count = draw(st.integers(1, 40))
    large = draw(st.sets(st.integers(0, count - 1), max_size=2)) if draw(st.booleans()) else set()
    pairs = []
    for k in range(count):
        n, m = draw(LARGE_SHAPES if k in large else SMALL_SHAPES)
        sources = draw(st.lists(sentence_strategy(SOURCE_WORDS), min_size=1, max_size=4))
        targets = draw(st.lists(sentence_strategy(TARGET_WORDS), min_size=1, max_size=4))
        pairs.append(
            (
                [sources[i % len(sources)] for i in range(n)],
                [targets[j % len(targets)] for j in range(m)],
            )
        )
    return pairs


@st.composite
def stub_pairs(draw):
    """100-400 pairs of 1x1, 1xn and nx1 sentence lists (n <= 3), the shape
    of stub articles, so that hundreds of pairs share a block; sometimes
    with one wide 1x150-400 pair among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = draw(st.lists(sentence_strategy(SOURCE_WORDS), min_size=1, max_size=8))
    targets = draw(st.lists(sentence_strategy(TARGET_WORDS), min_size=1, max_size=8))
    kinds = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
    shapes = [kinds[k] for k in rng.integers(0, len(kinds), rng.integers(100, 401))]
    if draw(st.booleans()):
        shapes.insert(int(rng.integers(0, len(shapes) + 1)), (1, int(rng.integers(150, 401))))
    return [
        (
            [sources[k] for k in rng.integers(0, len(sources), n)],
            [targets[k] for k in rng.integers(0, len(targets), m)],
        )
        for n, m in shapes
    ]


def block_features(model, lexicon, pairs):
    """Feature rows of every cell of every pair, as ``score_pairs`` takes
    them from the block feature stage, pair after pair and row by row."""
    rows = []
    real = classifier._features

    def recording(*args):
        for cells, features in real(*args):
            rows.append(np.column_stack(features))
            yield cells, features

    with mock.patch.object(classifier, "_features", recording):
        score_pairs(model, lexicon, pairs)
    return np.concatenate(rows)


FIXED_MODEL = SimilarityModel(
    weights=(0.5, 2.0, 1.5, 1.0, -0.2, 0.8),
    bias=-1.0,
    sigmoid_a=-1.3,
    sigmoid_b=0.1,
    feature_means=(1.0, 0.5, 0.5, 0.4, 1.0, 0.1),
    feature_scales=(0.5, 0.3, 0.3, 0.2, 0.5, 0.2),
)
LONG_SOURCE_WORDS = tuple(f"s{k}" for k in range(30)) + ("same", "also", "nowhere")
LONG_TARGET_WORDS = tuple(f"t{k}" for k in range(30)) + ("same", "also", "never")


@pytest.fixture(scope="module")
def long_pairs():
    """A lexicon, two pairs of 150-260 sentences a side and their oracle
    features and score matrices under ``FIXED_MODEL``.  Sentences have
    1-30 tokens, drawn with repeats from lexicon words, words outside the
    lexicon (s24-s29, "nowhere", "never", the target words on the source
    side) and words of both sides; each side's sentences repeat from a
    pool of 60, whose cells the oracles compute once."""
    rng = np.random.default_rng(149)
    lexicon = lexicon_from_table(
        {
            f"s{k}": {
                str(rng.choice(LONG_TARGET_WORDS + ("nowhere",))): float(
                    rng.choice([0.0, 1.0, rng.random(), rng.random()])
                )
                for _ in range(rng.integers(1, 7))
            }
            for k in range(24)
        }
        | {"same": {"same": 0.7, "t3": 0.2}, "also": {"t5": 1.0}}
    )

    def pool(words):
        return [
            " ".join(rng.choice(words, rng.integers(1, 31)).tolist()) for _ in range(60)
        ]

    pairs, features, matrices = [], [], []
    for n, m in ((150, 260), (260, 200)):
        sources = pool(LONG_SOURCE_WORDS + LONG_TARGET_WORDS[:4])
        targets = pool(LONG_TARGET_WORDS)
        rows, columns = rng.integers(0, 60, n), rng.integers(0, 60, m)
        pairs.append(([sources[i] for i in rows], [targets[j] for j in columns]))
        cells = np.array([[extract_features(s, t, lexicon) for t in targets] for s in sources])
        features.append(cells[np.ix_(rows, columns)].reshape(-1, 6))
        reference = reference_score_matrix(FIXED_MODEL, lexicon, sources, targets)
        matrices.append(reference[np.ix_(rows, columns)])
    return lexicon, pairs, np.concatenate(features), matrices


class TestScorePairs:
    """Scoring pairs in blocks equals the per-cell oracle bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(model=MODELS, lexicon=LEXICONS, pairs=sentence_pairs())
    @example(
        model=FIXED_MODEL,
        lexicon=lexicon_from_table(
            {"ka": {"ab": 0.5, "same": 0.0, "nowhere": 0.3}, "same": {"same": 1.0}}
        ),
        pairs=[
            (["ka"], ["ab"]),
            (["ka lo same", "mi", "same ka ka"] * 16, ["ab same", "cd ab"] * 22),
            (["lo"], ["cd", "same ef"]),
        ],
    )
    def test_generated_blocks(self, model, lexicon, pairs):
        matrices = score_pairs(model, lexicon, pairs)
        assert len(matrices) == len(pairs)
        for (sources, targets), matrix in zip(pairs, matrices):
            expected = reference_score_matrix(model, lexicon, sources, targets)
            assert matrix.shape == expected.shape and matrix.flags.c_contiguous
            assert np.array_equal(matrix, expected)

    @settings(max_examples=20, deadline=None)
    @given(model=MODELS, lexicon=LEXICONS, pairs=st.one_of(stub_pairs(), sentence_pairs()))
    def test_generated_features_and_stub_blocks(self, model, lexicon, pairs):
        expected = [
            extract_features(s, t, lexicon)
            for sources, targets in pairs
            for s in sources
            for t in targets
        ]
        assert np.array_equal(block_features(model, lexicon, pairs), np.array(expected))
        for (sources, targets), matrix in zip(pairs, score_pairs(model, lexicon, pairs)):
            assert np.array_equal(matrix, reference_score_matrix(model, lexicon, sources, targets))

    def test_join_hits_follow_each_pair(self, toy_model, toy_lexicon, monkeypatch):
        # Every hit of a join pairs a source token or sentence with a
        # target token of the same pair, never of another pair in the block.
        lookups, counts = [], []
        real_lookup, real_join = classifier._lookup, classifier._join

        def counting_lookup(keys, starts, queries):
            first, hits = real_lookup(keys, starts, queries)
            lookups.append(int(hits.sum()))
            return first, hits

        def counting_join(keys, starts, queries):
            query, item = real_join(keys, starts, queries)
            counts.append(len(item))
            return query, item

        monkeypatch.setattr(classifier, "_lookup", counting_lookup)
        monkeypatch.setattr(classifier, "_join", counting_join)
        rng = np.random.default_rng(137)
        pair, _ = make_mining_pair(rng, "stub", true_pairs=8, target_noise=4)
        sources, targets = pair.source.sentences, pair.target.sentences
        pairs = [([sources[k % 8]], [targets[(k * 5) % 12]]) for k in range(600)]
        # A wide pair among tiny ones, whose last target shares its source's tokens.
        pairs.insert(300, ([sources[0]], list(targets) * 30 + [sources[0]]))
        assert len(list(pair_blocks([(len(s), len(t)) for s, t in pairs]))) == 1
        widths = np.array([len(t) for s, t in pairs for _ in s])
        row_runs = list(grid_runs(widths, 4 * BLOCK_CELLS))
        assert len(row_runs) == 3
        score_pairs(toy_model, toy_lexicon, pairs)

        def tokens(side):
            return sum(len(tokenize(sentence)) for sentence in side)

        # One join per row run counts shared tokens of source sentences
        # against their own pair's targets; the reach reuses the hits of
        # the one lookup of the best table, of source tokens.
        bound = np.array([tokens(t) for s, t in pairs for _ in s])  # per source sentence
        per_pair = int(bound.sum())
        assert len(counts) == len(row_runs) and max(counts) > 0
        for run, count in zip(row_runs, counts):
            assert count <= bound[run].sum()
        assert lookups[0] > 0 and len(lookups) == 1 + len(counts)
        assert sum(lookups) <= per_pair + sum(tokens(s) * tokens(t) for s, t in pairs)
        # Hits that crossed pairs would be bounded by the block instead.
        assert per_pair * 100 < len(pairs) * sum(tokens(t) for _, t in pairs)

    @pytest.mark.parametrize("block_cells", [BLOCK_CELLS, 7])
    def test_long_pairs_over_many_row_runs(self, long_pairs, block_cells, monkeypatch):
        lexicon, pairs, features, matrices = long_pairs
        monkeypatch.setattr(classifier, "BLOCK_CELLS", block_cells)
        for sources, targets in pairs:
            row_runs = list(grid_runs(np.full(len(sources), len(targets)), 4 * block_cells))
            assert len(row_runs) >= 5
        assert np.array_equal(block_features(FIXED_MODEL, lexicon, pairs), features)
        for matrix, expected in zip(score_pairs(FIXED_MODEL, lexicon, pairs), matrices):
            assert np.array_equal(matrix, expected)

    def test_wide_pair_among_tiny_ones_stays_in_bounded_runs(self, toy_model, toy_lexicon):
        # A 1x1024 pair among 1024 1x1 pairs, one block: a grid of all its
        # sentences would be 1025 x 1024 cells, 36 MB as tracemalloc sees
        # it; cut into runs of at most 4 * BLOCK_CELLS grid cells, scoring
        # the block peaks near 2.2 MB (2.6 MB when runs held 2048 real cells).
        rng = np.random.default_rng(139)
        pair, _ = make_mining_pair(rng, "wide", true_pairs=8, target_noise=4)
        sources, targets = pair.source.sentences, pair.target.sentences
        pairs = [([sources[k % 8]], [targets[k % 12]]) for k in range(1024)]
        pairs.insert(512, ([sources[0]], [targets[j % 12] for j in range(1024)]))
        assert len(list(pair_blocks([(len(s), len(t)) for s, t in pairs]))) == 1
        tracemalloc.start()
        try:
            matrices = score_pairs(toy_model, toy_lexicon, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        for (s, t), matrix in zip(pairs, matrices):
            assert np.array_equal(matrix, reference_score_matrix(toy_model, toy_lexicon, s, t))

    @settings(max_examples=200, deadline=None)
    @given(
        widths=st.lists(st.integers(1, 300), max_size=60).map(np.array),
        cap=st.integers(1, 2000),
    )
    def test_grid_runs_cover_in_order_and_bound_the_grid(self, widths, cap):
        row_runs = list(grid_runs(widths, cap))
        assert [k for run in row_runs for k in range(run.start, run.stop)] == list(
            range(len(widths))
        )
        for run in row_runs:
            grid = (run.stop - run.start) * widths[run].max()
            assert grid <= cap or run.stop - run.start == 1
            if run.stop < len(widths):  # greedy: the next item would not fit
                assert (run.stop - run.start + 1) * widths[run.start : run.stop + 1].max() > cap

    def test_block_of_many_pairs_in_several_row_blocks(self, toy_model, toy_lexicon):
        # 100 tall pairs and one wide one: 820 cells in one block, whose
        # cells are stored flat, so the wide pair pads none of the others.
        rng = np.random.default_rng(131)
        pair, _ = make_mining_pair(rng, "rows", true_pairs=8, target_noise=12)
        sources, targets = list(pair.source.sentences), list(pair.target.sentences)
        pairs = [(sources[k % 8 :] + sources[: k % 8], [targets[k % 20]]) for k in range(100)]
        pairs.insert(60, (sources[:1], targets))
        assert len(list(pair_blocks([(len(s), len(t)) for s, t in pairs]))) == 1
        for (s, t), matrix in zip(pairs, score_pairs(toy_model, toy_lexicon, pairs)):
            assert np.array_equal(matrix, reference_score_matrix(toy_model, toy_lexicon, s, t))

    def test_blocks_are_runs_of_whole_pairs(self):
        shapes = [(3, 4)] * 100 + [(50, 50), (1, 1), (1, 1), (BLOCK_CELLS, 1)]
        blocks = list(pair_blocks(shapes))
        assert [pair for block in blocks for pair in range(block.start, block.stop)] == list(
            range(len(shapes))
        )
        cells = [sum(n * m for n, m in shapes[block]) for block in blocks]
        for block, total in zip(blocks, cells):
            assert total <= BLOCK_CELLS or block.stop - block.start == 1
            if block.stop < len(shapes):  # greedy: the next pair would not fit
                n, m = shapes[block.stop]
                assert total + n * m > BLOCK_CELLS
        assert blocks[-3:] == [slice(100, 101), slice(101, 103), slice(103, 104)]
        assert list(pair_blocks([])) == []


def oracle_outcome(model, lexicon, pairs, config, engine="nw"):
    """Rows and failures of mining each pair alone with
    ``oracles.reference_mine_pair`` and ``engine``, in ``mine_corpus``'s
    form."""
    rows, failures = [], []
    for pair in pairs:
        try:
            cells = reference_mine_pair(model, lexicon, pair, config, engine)
        except ValueError as exc:
            failures.append((pair.topic_id, f"pair {pair.topic_id}: {exc}"))
            continue
        source, target = pair.source.sentences, pair.target.sentences
        rows.extend((score, source[i], target[j]) for score, i, j in cells)
    return tuple(rows), tuple(failures)


class TestMining:
    def test_true_pairs_mined_no_noise(self, toy_model, toy_lexicon):
        rng = np.random.default_rng(59)
        pair, reference = make_mining_pair(rng, "alpha", true_pairs=6, target_noise=2)
        rows = mine_document_pair(toy_model, toy_lexicon, pair, MiningConfig(threshold=0.5))
        expected = [
            (pair.source.sentences[i], pair.target.sentences[j]) for i, j in reference
        ]
        assert [(src, tgt) for _, src, tgt in rows] == expected

    def test_unrelated_target_document_yields_nothing(self, toy_model, toy_lexicon):
        source = Document(id="s", lang="eo", title="t", sentences=("domo kato hundo",))
        target = Document(id="t", lang="en", title="t", sentences=("zork blip quux",))
        pair = DocumentPair(topic_id="t", source=source, target=target)
        rows = mine_document_pair(toy_model, toy_lexicon, pair, MiningConfig(threshold=0.5))
        assert rows == []

    def test_single_sentence_pair(self, toy_model, toy_lexicon):
        source = Document(id="s", lang="eo", title="t", sentences=("domo kato",))
        target = Document(id="t", lang="en", title="t", sentences=("house cat",))
        pair = DocumentPair(topic_id="t", source=source, target=target)
        rows = mine_document_pair(toy_model, toy_lexicon, pair, MiningConfig(threshold=0.5))
        assert len(rows) == 1
        assert rows[0][0] >= 0.5

    def test_engines_agree_on_mined_output(self, toy_model, toy_lexicon):
        # A* checks the dynamic program's mined matches on its own.
        rng = np.random.default_rng(61)
        pair, _ = make_mining_pair(rng, "beta")
        config = MiningConfig()
        sources, targets = pair.source.sentences, pair.target.sentences
        sim = build_score_matrix(toy_model, toy_lexicon, sources, targets)
        (kept,) = kept_cells([sim], [(config.threshold, config.gap_penalty)], config)
        assert kept
        assert kept == filter_by_threshold(sim, astar_align(sim, config), config.threshold)

    def test_corpus_output_invariant_to_workers(self, toy_model, toy_lexicon):
        rng = np.random.default_rng(67)
        pairs = [make_mining_pair(rng, f"topic-{k}")[0] for k in range(8)]
        serial = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=1))
        parallel = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=2))
        assert serial == parallel
        assert serial.failures == ()

    def test_failing_pair_reported_and_skipped(self, toy_model, toy_lexicon):
        rng = np.random.default_rng(71)
        good, _ = make_mining_pair(rng, "good")
        bad = DocumentPair(
            topic_id="bad",
            source=Document(id="b1", lang="eo", title="bad", sentences=("...",)),
            target=Document(id="b2", lang="en", title="bad", sentences=("house",)),
        )
        outcome = mine_corpus(toy_model, toy_lexicon, [good, bad], MiningConfig(workers=1))
        assert len(outcome.failures) == 1
        assert outcome.failures[0][0] == "bad"
        assert "untokenizable" in outcome.failures[0][1]
        assert len(outcome.rows) > 0

    def test_dead_worker_costs_only_unfinished_pairs(self, toy_model, toy_lexicon, monkeypatch):
        rng = np.random.default_rng(107)
        pairs = [make_mining_pair(rng, f"alive-{k}")[0] for k in range(7)]
        pairs.append(make_mining_pair(rng, "boom")[0])
        parent = os.getpid()
        real = align.score_pairs

        def dying(model, lexicon, block):
            if (pairs[-1].source.sentences, pairs[-1].target.sentences) in block and (
                os.getpid() != parent
            ):
                time.sleep(0.5)  # let the other worker's results arrive first
                os._exit(1)
            return real(model, lexicon, block)

        monkeypatch.setattr(align, "score_pairs", dying)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=2))
        failed = dict(outcome.failures)
        assert failed["boom"] == "worker process died"
        assert set(failed.values()) == {"worker process died"}
        kept = [pair for pair in pairs if pair.topic_id not in failed]
        assert pairs[0] in kept
        serial = mine_corpus(toy_model, toy_lexicon, kept, MiningConfig(workers=1))
        assert outcome.rows == serial.rows
        assert serial.failures == ()

    def test_dead_worker_costs_only_its_own_chunk(self, toy_model, toy_lexicon, monkeypatch):
        rng = np.random.default_rng(109)
        pairs = [make_mining_pair(rng, f"pair-{k}")[0] for k in range(40)]
        chunk = len(pairs) // (2 * 4)  # mine_corpus's chunk size at two workers
        parent = os.getpid()
        real = align.score_pairs

        def dying(model, lexicon, block):
            if (pairs[2].source.sentences, pairs[2].target.sentences) in block and (
                os.getpid() != parent
            ):
                os._exit(1)
            return real(model, lexicon, block)

        monkeypatch.setattr(align, "score_pairs", dying)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=2))
        assert outcome.failures == tuple(
            (pair.topic_id, "worker process died") for pair in pairs[:chunk]
        )
        clean = mine_corpus(toy_model, toy_lexicon, pairs[chunk:], MiningConfig(workers=1))
        assert outcome.rows == clean.rows
        assert clean.failures == ()

    def test_empty_pair_list(self, toy_model, toy_lexicon):
        outcome = mine_corpus(toy_model, toy_lexicon, [], MiningConfig(workers=4))
        assert outcome.rows == ()
        assert outcome.failures == ()

    def test_more_workers_than_pairs(self, toy_model, toy_lexicon):
        rng = np.random.default_rng(83)
        pairs = [make_mining_pair(rng, f"few-{k}")[0] for k in range(3)]
        wide = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=16))
        narrow = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=1))
        assert wide == narrow

    @staticmethod
    def pairs_of_shapes(rng, shapes, prefix):
        """Document pairs of the given (sources, targets) shapes, their
        sentences drawn from one pool of translated sentences."""
        pool = make_parallel_sentences(rng, 200)
        pairs = []
        for k, (n, m) in enumerate(shapes):
            picks = rng.integers(0, len(pool), n + m)
            sources = tuple(pool[i][0] for i in picks[:n])
            targets = tuple(pool[i][1] for i in picks[n:])
            pairs.append(
                DocumentPair(
                    topic_id=f"{prefix}{k}",
                    source=Document(id=f"{prefix}{k}s", lang="eo", title="t", sentences=sources),
                    target=Document(id=f"{prefix}{k}t", lang="en", title="t", sentences=targets),
                )
            )
        return pairs

    def test_serial_mining_encodes_once_per_block(self, toy_model, toy_lexicon, monkeypatch):
        # The shapes of pipeline-many-docs: 1200 pairs of 4 to 15
        # sentences a side, the longer side alternating, in a seeded order.
        sizes = np.linspace(4, 12, 1200).round().astype(int).tolist()
        shapes = [
            (s, round(s * 1.25)) if k % 2 == 0 else (round(s * 1.25), s)
            for k, s in enumerate(sizes)
        ]
        rng = np.random.default_rng(149)
        shapes = [shapes[k] for k in rng.permutation(len(shapes))]
        pairs = self.pairs_of_shapes(rng, shapes, "doc")
        calls = []
        real = classifier.encode

        def counting(compiled, sentences):
            calls.append(len(sentences))
            return real(compiled, sentences)

        monkeypatch.setattr(classifier, "encode", counting)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=1))
        assert outcome.failures == () and len(outcome.rows) > 0
        blocks = list(pair_blocks(shapes))
        assert len(calls) == len(blocks) == 53
        assert calls == [sum(n + m for n, m in shapes[block]) for block in blocks]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stub_pairs_with_a_failing_pair_mid_block(self, toy_model, toy_lexicon, workers):
        rng = np.random.default_rng(151)
        pairs = self.pairs_of_shapes(rng, [(1, 1)] * 2000, "stub")
        bad = pairs[1000]
        pairs[1000] = replace(bad, target=replace(bad.target, sentences=("...",)))
        (block,) = [b for b in pair_blocks([(1, 1)] * 2000) if b.start <= 1000 < b.stop]
        assert block.start < 1000 < block.stop - 1
        config = MiningConfig(threshold=0.3, gap_penalty=0.6, workers=workers)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, config)
        assert (outcome.rows, outcome.failures) == oracle_outcome(
            toy_model, toy_lexicon, pairs, config, "nw"
        )
        assert outcome.failures == (
            ("stub1000", "pair stub1000: target sentence 0: untokenizable sentence: '...'"),
        )

    @pytest.mark.parametrize("engine", ["nw", "astar_constrained"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_rows_equal_per_pair_mining(self, toy_model, toy_lexicon, engine, workers):
        # ``engine`` aligns the oracle only: mining always runs the dynamic
        # program, which A* checks independently.
        rng = np.random.default_rng(113)
        pairs = [
            make_mining_pair(rng, f"p{k}", int(rng.integers(1, 7)), int(rng.integers(0, 3)))[0]
            for k in range(30)
        ]
        # One pair above BLOCK_CELLS, scored in row blocks on its own.
        pairs[20] = make_mining_pair(rng, "large", true_pairs=44, target_noise=6)[0]
        # Pairs that share a token outside the lexicon between their sides
        # and have one only on the target side, two by two in several
        # blocks and worker chunks.  Ids past the lexicon are numbered per
        # block, so neighbours in a block give the same token the same id
        # ("quux" is the target-only token of one and on both sides of the
        # next), which only the (pair, id) keys keep apart, and the
        # target-only token's id lies past every source id of its pair.
        noise = ("zork", "blip", "quux", "fnord")
        for k in range(9, 45, 4):
            for j in (k, k + 1):
                a, c = noise[j % 4], noise[(j + 1) % 4]
                sources = (" ".join(SOURCE_VOCAB) + f" {a}",)
                targets = (" ".join(TARGET_VOCAB) + f" {a} {c}",)
                pairs.insert(
                    j,
                    DocumentPair(
                        topic_id=f"outside-{j}",
                        source=Document(id=f"o{j}s", lang="eo", title="o", sentences=sources),
                        target=Document(id=f"o{j}t", lang="en", title="o", sentences=targets),
                    ),
                )
        bad = DocumentPair(
            topic_id="bad",
            source=Document(id="b1", lang="eo", title="bad", sentences=("domo", "...")),
            target=Document(id="b2", lang="en", title="bad", sentences=("house",)),
        )
        pairs.insert(7, bad)
        shapes = [(len(p.source.sentences), len(p.target.sentences)) for p in pairs]
        (block,) = [b for b in pair_blocks(shapes) if b.start <= 7 < b.stop]
        assert block.start < 7 < block.stop - 1  # the failing pair sits inside a block
        outside = [k for k, pair in enumerate(pairs) if pair.topic_id.startswith("outside")]
        blocks = [b for b in pair_blocks(shapes) if any(b.start <= k < b.stop for k in outside)]
        assert len(blocks) >= 2
        assert all(sum(b.start <= k < b.stop for k in outside) >= 2 for b in blocks)
        chunk = max(1, len(pairs) // (workers * 4))  # mine_corpus's chunk size
        assert len({k // chunk for k in outside}) >= 2
        config = MiningConfig(threshold=0.3, gap_penalty=0.6, workers=workers)

        outcome = mine_corpus(toy_model, toy_lexicon, pairs, config)

        assert (outcome.rows, outcome.failures) == oracle_outcome(
            toy_model, toy_lexicon, pairs, config, engine
        )
        assert outcome.failures[0][1].startswith("pair bad: source sentence 1: untokenizable")

    @staticmethod
    def long_pair_corpus():
        """Short pairs with two long ones (each above BLOCK_CELLS, so a
        block of its own at any worker count) of different shapes."""
        rng = np.random.default_rng(139)
        pairs = [
            make_mining_pair(rng, f"q{k}", int(rng.integers(1, 7)), int(rng.integers(0, 3)))[0]
            for k in range(30)
        ]
        pairs[8] = make_mining_pair(rng, "long", true_pairs=44, target_noise=6)[0]
        pairs[21] = make_mining_pair(rng, "other", true_pairs=46, target_noise=4)[0]
        for pair in (pairs[8], pairs[21]):
            assert len(pair.source.sentences) * len(pair.target.sentences) > BLOCK_CELLS
        return pairs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_scoring_fails_only_its_block(
        self, toy_model, toy_lexicon, workers, monkeypatch
    ):
        pairs = self.long_pair_corpus()
        unscored = pairs[21]
        shape = (len(unscored.source.sentences), len(unscored.target.sentences))
        assert [(len(p.source.sentences), len(p.target.sentences)) for p in pairs].count(shape) == 1
        real = align.score_pairs

        def failing(model, lexicon, block):
            if any((len(sources), len(targets)) == shape for sources, targets in block):
                raise ValueError("scoring failed")
            return real(model, lexicon, block)

        monkeypatch.setattr(align, "score_pairs", failing)
        config = MiningConfig(threshold=0.3, gap_penalty=0.6, workers=workers)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, config)
        rows, failures = oracle_outcome(
            toy_model, toy_lexicon, [p for p in pairs if p is not unscored], config, "nw"
        )
        assert failures == ()
        assert outcome.rows == rows
        assert outcome.failures == (("other", "pair other: scoring failed"),)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_alignment_fails_only_its_call(
        self, toy_model, toy_lexicon, workers, monkeypatch
    ):
        # With the budget of the long pair's fill, its kept_cells call
        # holds it alone; the pairs of the other calls are mined.
        pairs = self.long_pair_corpus()
        long = pairs[8]
        shape = (len(long.source.sentences), len(long.target.sentences))
        monkeypatch.setattr(kernels, "BATCH_BYTES", kernels.fill_bytes(*shape, 1, 1))
        real = align.kept_cells

        def failing(matrices, trials, config):
            if any(matrix.shape == shape for matrix in matrices):
                raise ValueError("alignment failed")
            return real(matrices, trials, config)

        monkeypatch.setattr(align, "kept_cells", failing)
        config = MiningConfig(threshold=0.3, gap_penalty=0.6, workers=workers)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, config)
        rows, failures = oracle_outcome(
            toy_model, toy_lexicon, [p for p in pairs if p is not long], config, "nw"
        )
        assert failures == ()
        assert outcome.rows == rows
        assert outcome.failures == (("long", "pair long: alignment failed"),)

    def test_one_alignment_call_per_run_of_blocks(self, toy_model, toy_lexicon, monkeypatch):
        # Blocks are aligned in the runs of classifier.runs over their
        # pairs' fill bytes; an untokenizable pair counts toward its run's
        # bytes but gives no matrix.
        rng = np.random.default_rng(157)
        pairs = [
            make_mining_pair(rng, f"r{k}", int(rng.integers(8, 21)), int(rng.integers(0, 4)))[0]
            for k in range(60)
        ]
        shapes = [(len(p.source.sentences), len(p.target.sentences)) for p in pairs]
        blocks = list(pair_blocks(shapes))
        assert any(b.start < 25 < b.stop - 1 for b in blocks)  # pair 25 sits inside a block
        bad = pairs[25]
        targets = bad.target.sentences
        untokenizable = (targets[0], "...", *targets[2:])
        pairs[25] = replace(bad, target=replace(bad.target, sentences=untokenizable))
        block_bytes = [sum(kernels.fill_bytes(n, m, 1, 1) for n, m in shapes[b]) for b in blocks]
        cap = sum(block_bytes) // 4
        monkeypatch.setattr(kernels, "BATCH_BYTES", cap)
        runs = list(classifier.runs(block_bytes, cap))
        assert len(runs) >= 3 and any(run.stop - run.start >= 2 for run in runs)
        expected = [  # the run's pairs, less the untokenizable one
            sum(b.stop - b.start - (b.start <= 25 < b.stop) for b in blocks[run]) for run in runs
        ]
        calls = []
        real = align.kept_cells

        def counting(matrices, trials, config):
            calls.append(len(matrices))
            return real(matrices, trials, config)

        monkeypatch.setattr(align, "kept_cells", counting)
        config = MiningConfig(threshold=0.3, gap_penalty=0.6)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, config)
        assert calls == expected
        assert (outcome.rows, outcome.failures) == oracle_outcome(
            toy_model, toy_lexicon, pairs, config
        )
        assert outcome.failures == (
            ("r25", "pair r25: target sentence 1: untokenizable sentence: '...'"),
        )

    @pytest.mark.parametrize("engine", ["nw", "astar_constrained"])
    def test_one_pair_equals_the_oracle(self, toy_model, toy_lexicon, engine):
        # ``engine`` aligns the oracle only, as above.
        rng = np.random.default_rng(137)
        config = MiningConfig(threshold=0.3, gap_penalty=0.6)
        for k in range(10):
            pair = make_mining_pair(rng, f"one-{k}", int(rng.integers(1, 9)), int(rng.integers(0, 4)))[0]
            expected, _ = oracle_outcome(toy_model, toy_lexicon, [pair], config, engine)
            assert tuple(mine_document_pair(toy_model, toy_lexicon, pair, config)) == expected
        bad = DocumentPair(
            topic_id="bad",
            source=Document(id="b1", lang="eo", title="bad", sentences=("domo",)),
            target=Document(id="b2", lang="en", title="bad", sentences=("house", "!")),
        )
        _, ((_, message),) = oracle_outcome(toy_model, toy_lexicon, [bad], config, engine)
        with pytest.raises(ValueError) as excinfo:
            mine_document_pair(toy_model, toy_lexicon, bad, config)
        assert str(excinfo.value) == message
        assert message.startswith("pair bad: target sentence 1: untokenizable")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_wide_pair_pads_no_table_past_the_cap(
        self, toy_model, toy_lexicon, workers, monkeypatch, tmp_path
    ):
        # One 1x1000 pair and 1000 1x1 pairs make one scoring block; no
        # fill of it may pad the small pairs to one table past the cap.
        def pair(topic, targets):
            return DocumentPair(
                topic_id=topic,
                source=Document(id=f"{topic}-s", lang="eo", title=topic, sentences=("domo kato",)),
                target=Document(id=f"{topic}-t", lang="en", title=topic, sentences=targets),
            )

        words = ("house cat", "dog", "house", "zork blip", "cat house")
        pairs = [pair("wide", tuple(words[k % 5] for k in range(1000)))]
        pairs += [pair(f"small-{k}", (words[k % 5],)) for k in range(1000)]
        shapes = [(len(p.source.sentences), len(p.target.sentences)) for p in pairs]
        assert len(list(pair_blocks(shapes))) == 1
        record = tmp_path / "fills.txt"
        fill = kernels.fill

        def recorded_fill(sims, mismatch, bonus, gaps):
            moves, scores = fill(sims, mismatch, bonus, gaps)
            _, n, m, lanes = moves.shape
            needed = sum(sim.size + sum(sim.shape) + 1 for sim in sims)
            size = kernels.fill_bytes(n - 1, m - 1, lanes, len(sims))
            with open(record, "a", encoding="utf-8") as handle:  # also from pool workers
                handle.write(f"{n * m * lanes} {needed} {size}\n")
            return moves, scores

        monkeypatch.setattr(kernels, "fill", recorded_fill)
        config = MiningConfig(threshold=0.3, workers=workers)
        outcome = mine_corpus(toy_model, toy_lexicon, pairs, config)
        lines = record.read_text(encoding="utf-8").splitlines()
        fills = [tuple(map(int, line.split())) for line in lines]
        assert fills and all(size <= kernels.BATCH_BYTES for _, _, size in fills)
        assert all(padded <= 2 * needed for padded, needed, _ in fills)
        assert sum(needed for _, needed, _ in fills) == 2002 + 1000 * 4
        assert (outcome.rows, outcome.failures) == oracle_outcome(
            toy_model, toy_lexicon, pairs, config, "nw"
        )
        assert outcome.failures == () and len(outcome.rows) > 400

    def test_one_sweep_per_block(self, toy_model, toy_lexicon, monkeypatch):
        # Blocks that fit in one fill's budget are aligned together, so
        # their lanes share sweeps: at most one per block.
        rng = np.random.default_rng(127)
        pairs = [make_mining_pair(rng, f"s{k}", 3, 1)[0] for k in range(200)]
        shapes = [(len(p.source.sentences), len(p.target.sentences)) for p in pairs]
        blocks = list(pair_blocks(shapes))
        assert 1 < len(blocks) < len(pairs) // 10
        lanes = []
        real = kernels._sweep

        def counting(rows, moves, *rest):
            lanes.append(moves.shape[2])
            real(rows, moves, *rest)

        monkeypatch.setattr(kernels, "_sweep", counting)
        mine_corpus(toy_model, toy_lexicon, pairs, MiningConfig(workers=1))
        assert lanes == [len(group) for group in align._lane_groups(shapes, True)]
        assert len(lanes) <= len(blocks)
