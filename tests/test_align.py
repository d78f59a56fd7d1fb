"""Alignment engines: optimality, oracles, demos and mining."""

import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimine import align, kernels
from bimine.align import (
    Alignment,
    GapSource,
    GapTarget,
    Match,
    MiningConfig,
    astar_align,
    build_score_matrix,
    filter_by_threshold,
    mine_corpus,
    mine_document_pair,
    nw_align,
    nw_align_batch,
    nw_align_wavefront,
)
from bimine.classifier import BLOCK_CELLS, SimilarityModel
from bimine.corpus import Document, DocumentPair
from bimine.lexicon import Lexicon
from bimine.demos import (
    DEMO_CONFIG,
    SYMBOL_SOURCE,
    SYMBOL_TARGET,
    WORD_SOURCE,
    WORD_TARGET,
    exact_match_matrix,
    render_alignment,
)

from conftest import make_mining_pair
from oracles import brute_force_best_score, reference_dp_table, reference_score_matrix

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


class TestFillBatch:
    GAPS = (0.0, 0.6, 2.0, 0.25, 4.75)

    def test_every_table_matches_oracle(self):
        rng = np.random.default_rng(41)
        shapes = [(1, 1), (1, 7), (7, 1), (1, 30), (30, 1), (2, 2)] + [
            (int(rng.integers(1, 25)), int(rng.integers(1, 25))) for _ in range(40)
        ]
        for n, m in shapes:
            sim = rng.random((n, m)) if rng.random() < 0.5 else rng.integers(0, 3, (n, m)) / 2.0
            mismatch, bonus = float(rng.uniform(-2, 0)), float(rng.uniform(0, 2))
            tables = kernels.fill_batch(sim, mismatch, bonus, self.GAPS)
            assert tables.shape == (n + 1, m + 1, len(self.GAPS))
            assert tables.flags.c_contiguous
            for t, gap in enumerate(self.GAPS):
                expected = reference_dp_table(sim, mismatch, bonus, gap)
                assert np.array_equal(tables[:, :, t], expected), (n, m, gap)

    def test_sequential_is_the_one_gap_batch(self):
        sim = np.random.default_rng(43).random((9, 13))
        table = kernels.fill_sequential(sim, -1.0, 1.0, 0.6)
        assert table.shape == (10, 14)
        assert table.tobytes() == kernels.fill_batch(sim, -1.0, 1.0, [0.6])[:, :, 0].tobytes()

    def test_batch_larger_than_the_cell_cap(self):
        # More trials than one batch may hold: the fill itself does not split.
        rng = np.random.default_rng(47)
        sim = rng.random((40, 50))
        gaps = rng.uniform(0.0, 5.0, 2 * (kernels.BATCH_CELLS // (41 * 51)) + 3)
        tables = kernels.fill_batch(sim, -1.0, 1.0, gaps)
        for t in (0, len(gaps) // 2, len(gaps) - 1):
            assert np.array_equal(tables[:, :, t], reference_dp_table(sim, -1.0, 1.0, gaps[t]))


class TestNwAlignBatch:
    def test_equals_nw_align_for_each_gap(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n, m = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            sim = rng.random((n, m)) if rng.random() < 0.5 else rng.integers(0, 2, (n, m)) * 1.0
            config = MiningConfig(
                match_bonus=float(rng.uniform(0, 2)), mismatch_cost=float(rng.uniform(-2, 0))
            )
            gaps = [0.0, *rng.uniform(0.0, 5.0, 6).tolist(), 1.0]
            batch = list(nw_align_batch(sim, config, gaps))
            assert batch == [nw_align(sim, replace(config, gap_penalty=g)) for g in gaps]

    def test_gaps_spanning_several_batches(self):
        rng = np.random.default_rng(59)
        sim = rng.random((40, 50))
        per_batch = kernels.BATCH_CELLS // (41 * 51)
        gaps = rng.uniform(0.0, 5.0, 2 * per_batch + 7).tolist()
        batch = list(nw_align_batch(sim, MiningConfig(), gaps))
        assert len(batch) == len(gaps)
        for k in (0, per_batch - 1, per_batch, 2 * per_batch, len(gaps) - 1):
            assert batch[k] == nw_align(sim, MiningConfig(gap_penalty=gaps[k]))

    def test_no_gaps_no_alignments(self):
        assert list(nw_align_batch(np.eye(3), MiningConfig(), [])) == []

    @pytest.mark.parametrize("gap", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_gaps(self, gap):
        with pytest.raises(ValueError, match="gap penalties"):
            nw_align_batch(np.eye(3), MiningConfig(), [1.0, gap])

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            nw_align_batch(np.array([[0.5, 1.5]]), MiningConfig(), [1.0])


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
    def test_single_cell_equals_similarity(self, toy_model, toy_lexicon):
        from bimine.classifier import similarity

        matrix = build_score_matrix(toy_model, toy_lexicon, ["domo kato"], ["house cat"])
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == similarity(toy_model, "domo kato", "house cat", toy_lexicon)

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
).map(Lexicon)

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
        lexicon = Lexicon({"ka": {"ab": 0.0, "cd": 0.4}, "lo": {"ab": 0.0}})
        matrix = assert_matches_oracle(toy_model, lexicon, ["ka lo", "lo"], ["ab", "cd ab", "ef"])
        only_zero = reference_score_matrix(toy_model, Lexicon({}), ["lo"], ["ab", "cd ab", "ef"])
        assert np.array_equal(matrix[1], only_zero[0])

    def test_tokens_shared_across_languages(self, toy_model):
        lexicon = Lexicon({"same": {"same": 0.7}, "ka": {"same": 0.2}})
        assert_matches_oracle(
            toy_model, lexicon, ["same ka", "same same", "ka"], ["same", "ab same cd", "ab"]
        )

    def test_repeated_tokens(self, toy_model):
        lexicon = Lexicon({"ka": {"ab": 0.3, "cd": 0.9}, "lo": {"ab": 1.0}})
        assert_matches_oracle(
            toy_model, lexicon, ["ka ka ka lo", "lo lo"], ["ab ab cd", "cd cd cd cd", "ab"]
        )

    def test_translations_absent_from_the_document(self, toy_model):
        lexicon = Lexicon({"ka": {"nowhere": 0.9, "ab": 0.1}, "lo": {"never": 1.0}})
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


class TestMining:
    def test_true_pairs_mined_no_noise(self, toy_model, toy_lexicon):
        rng = np.random.default_rng(59)
        pair, reference = make_mining_pair(rng, "alpha", true_pairs=6, target_noise=2)
        rows = mine_document_pair(
            toy_model, toy_lexicon, pair, MiningConfig(threshold=0.5), engine="nw"
        )
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
        rng = np.random.default_rng(61)
        pair, _ = make_mining_pair(rng, "beta")
        results = [
            mine_document_pair(toy_model, toy_lexicon, pair, MiningConfig(), engine=e)
            for e in ("nw", "astar_constrained")
        ]
        assert {r[1:] for r in results[0]} == {r[1:] for r in results[1]}

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
        outcome = mine_corpus(
            toy_model, toy_lexicon, [good, bad], MiningConfig(workers=1), engine="nw"
        )
        assert len(outcome.failures) == 1
        assert outcome.failures[0][0] == "bad"
        assert "untokenizable" in outcome.failures[0][1]
        assert len(outcome.rows) > 0

    def test_dead_worker_costs_only_unfinished_pairs(self, toy_model, toy_lexicon, monkeypatch):
        rng = np.random.default_rng(107)
        pairs = [make_mining_pair(rng, f"alive-{k}")[0] for k in range(7)]
        pairs.append(make_mining_pair(rng, "boom")[0])
        parent = os.getpid()
        real = align.mine_document_pair

        def dying(model, lexicon, pair, config, engine):
            if pair.topic_id == "boom" and os.getpid() != parent:
                time.sleep(0.5)  # let the other worker's results arrive first
                os._exit(1)
            return real(model, lexicon, pair, config, engine)

        monkeypatch.setattr(align, "mine_document_pair", dying)
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
        real = align.mine_document_pair

        def dying(model, lexicon, pair, config, engine):
            if pair.topic_id == "pair-2" and os.getpid() != parent:
                os._exit(1)
            return real(model, lexicon, pair, config, engine)

        monkeypatch.setattr(align, "mine_document_pair", dying)
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

    def test_unknown_engine_rejected(self, toy_model, toy_lexicon):
        with pytest.raises(ValueError, match="unknown engine"):
            mine_corpus(toy_model, toy_lexicon, [], MiningConfig(), engine="bogus")
