"""Agreement measurement and random-search parameter tuning."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimine import align, kernels, tuning
from bimine.align import MiningConfig, nw_align
from bimine.tuning import TuningSample, alignment_agreement, read_reference, read_samples, tune

from conftest import make_mining_pair
import oracles
from oracles import longest_common_subsequence


def strictly_monotone(pairs):
    """Keep the pairs that increase in both indices over the last kept one."""
    kept = []
    for i, j in pairs:
        if not kept or (i > kept[-1][0] and j > kept[-1][1]):
            kept.append((i, j))
    return kept


MONOTONE_PAIRS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=8).map(
    lambda pairs: strictly_monotone(sorted(set(pairs)))
)


class TestAgreement:
    def test_identity_is_full_agreement(self):
        assert alignment_agreement([(0, 0), (1, 1)], [(0, 0), (1, 1)]) == 100.0

    def test_empty_candidate_against_reference(self):
        assert alignment_agreement([], [(0, 0)]) == 0.0

    def test_both_empty(self):
        assert alignment_agreement([], []) == 100.0

    def test_empty_reference_nonempty_candidate(self):
        assert alignment_agreement([(0, 0)], []) == 0.0

    def test_two_of_three_matched(self):
        value = alignment_agreement([(0, 0), (2, 2)], [(0, 0), (1, 1), (2, 2)])
        assert value == pytest.approx(200.0 / 3.0)

    def test_extra_candidates_are_gapped_not_mismatched(self):
        value = alignment_agreement([(0, 0), (1, 1), (2, 2)], [(0, 0), (2, 2)])
        assert value == 100.0

    def test_bounded_and_full_only_when_all_matched(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ref = sorted({(int(i), int(i)) for i in rng.integers(0, 10, size=5)})
            cand = [p for p in ref if rng.random() > 0.3]
            value = alignment_agreement(cand, ref)
            assert 0.0 <= value <= 100.0
            if value == 100.0:
                assert set(ref).issubset(set(cand))

    def test_self_agreement_on_random_monotone_lists(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k = int(rng.integers(1, 8))
            items = sorted({(int(a), int(a) + 1) for a in rng.integers(0, 20, size=k)})
            assert alignment_agreement(items, items) == 100.0


    def test_shared_pair_counts_whatever_precedes_it(self):
        # One shared pair behind three unshared ones must still count.
        candidate = [(5, 5), (6, 6), (7, 7), (8, 8)]
        assert alignment_agreement(candidate, [(1, 1), (2, 2), (3, 3), (5, 5)]) == 25.0

    @settings(max_examples=200, deadline=None)
    @given(MONOTONE_PAIRS, MONOTONE_PAIRS.filter(bool))
    def test_equals_intersection_share_and_lcs(self, candidate, reference):
        value = alignment_agreement(candidate, reference)
        shared = set(candidate) & set(reference)
        assert value == 100.0 * len(shared) / len(reference)
        assert len(shared) == longest_common_subsequence(candidate, reference)


class TestTuningSample:
    def test_reference_must_be_monotone(self, toy_model):
        rng = np.random.default_rng(7)
        pair, _ = make_mining_pair(rng, "sample")
        with pytest.raises(ValueError, match="monotone"):
            TuningSample(pair=pair, reference=((1, 1), (0, 2)))

    def test_reference_indices_in_range(self):
        rng = np.random.default_rng(9)
        pair, _ = make_mining_pair(rng, "sample")
        with pytest.raises(ValueError, match="out of range"):
            TuningSample(pair=pair, reference=((0, 99),))


@pytest.fixture(scope="module")
def planted(toy_model, toy_lexicon):
    """Samples whose reference is what mining produces at threshold 0.6."""
    rng = np.random.default_rng(4242)
    base = MiningConfig(threshold=0.6)
    samples = []
    for k in range(4):
        pair, _ = make_mining_pair(rng, f"planted-{k}", true_pairs=6, target_noise=2)
        mined = oracles.reference_mine_pair(toy_model, toy_lexicon, pair, base)
        reference = tuple((i, j) for _, i, j in mined)
        samples.append(TuningSample(pair=pair, reference=reference))
    assert all(sample.reference for sample in samples)
    return samples


def use_random_matrices(monkeypatch):
    """Score tuning samples, in ``tune`` and in its oracle, with one
    uniform random matrix per sample.  The toy model scores so cleanly
    that every trial agrees alike; on random matrices the alignments,
    and so the winning trial, change with the gap penalty."""
    rng = np.random.default_rng(61)
    matrices = {}

    def random_matrix(model, lexicon, source, target):
        key = (tuple(source), tuple(target))
        if key not in matrices:
            matrices[key] = rng.random((len(source), len(target)))
        return matrices[key]

    def random_scores(model, lexicon, pairs):
        return [random_matrix(model, lexicon, source, target) for source, target in pairs]

    monkeypatch.setattr(tuning, "score_pairs", random_scores)
    monkeypatch.setattr(oracles, "build_score_matrix", random_matrix)


class TestTune:
    def test_budget_one_returns_defaults(self, toy_model, toy_lexicon, planted):
        config = MiningConfig(threshold=0.5, gap_penalty=2.0)
        result = tune(toy_model, toy_lexicon, planted, budget=1, seed=42, base_config=config)
        assert result.threshold == config.threshold
        assert result.gap_penalty == config.gap_penalty
        assert result.trials == 1
        assert result.agreement == result.default_agreement

    def test_planted_fixture_recovered(self, toy_model, toy_lexicon, planted):
        result = tune(toy_model, toy_lexicon, planted, budget=40, seed=42)
        assert result.agreement >= 95.0
        assert result.agreement >= result.default_agreement
        assert len(result.per_sample) == len(planted)

    def test_reference_produced_by_defaults_scores_full_at_trial_one(
        self, toy_model, toy_lexicon
    ):
        rng = np.random.default_rng(11)
        config = MiningConfig()
        samples = []
        for k in range(3):
            pair, _ = make_mining_pair(rng, f"default-ref-{k}")
            mined = oracles.reference_mine_pair(toy_model, toy_lexicon, pair, config)
            samples.append(
                TuningSample(pair=pair, reference=tuple((i, j) for _, i, j in mined))
            )
        for budget in (1, 7):
            result = tune(toy_model, toy_lexicon, samples, budget=budget, seed=2)
            assert result.default_agreement == 100.0
            assert result.agreement == 100.0

    def test_deterministic(self, toy_model, toy_lexicon, planted):
        a = tune(toy_model, toy_lexicon, planted, budget=15, seed=9)
        b = tune(toy_model, toy_lexicon, planted, budget=15, seed=9)
        assert a == b

    def test_longer_budget_never_worse(self, toy_model, toy_lexicon, planted):
        agreements = [
            tune(toy_model, toy_lexicon, planted, budget=b, seed=4).agreement
            for b in (1, 5, 15, 30)
        ]
        assert all(later >= earlier for earlier, later in zip(agreements, agreements[1:]))

    def test_parameters_stay_in_search_ranges(self, toy_model, toy_lexicon, planted):
        result = tune(toy_model, toy_lexicon, planted, budget=25, seed=13)
        assert 0.0 <= result.threshold <= 1.0
        assert 0.0 <= result.gap_penalty <= 5.0

    def test_invalid_arguments(self, toy_model, toy_lexicon, planted):
        with pytest.raises(ValueError):
            tune(toy_model, toy_lexicon, planted, budget=0, seed=1)
        with pytest.raises(ValueError):
            tune(toy_model, toy_lexicon, [], budget=5, seed=1)

    @pytest.mark.parametrize("scores", ["model", "random"])
    @pytest.mark.parametrize("engine", ["nw", "astar_constrained"])
    @pytest.mark.parametrize("budget", [1, 2, 37])
    def test_equals_trial_major_oracle(
        self, toy_model, toy_lexicon, planted, monkeypatch, scores, engine, budget
    ):
        # ``engine`` aligns the oracle only: ``tune`` always runs the
        # dynamic program, which A* checks independently.
        if scores == "random":
            use_random_matrices(monkeypatch)
        config = MiningConfig(threshold=0.55, gap_penalty=1.5)
        expected = oracles.reference_tune(
            toy_model, toy_lexicon, planted, budget, seed=21, engine=engine, base_config=config
        )
        result = tune(toy_model, toy_lexicon, planted, budget, seed=21, base_config=config)
        assert result == expected

    @pytest.mark.parametrize("scores", ["model", "random"])
    def test_trials_in_several_batches_equal_the_oracle(
        self, toy_model, toy_lexicon, planted, monkeypatch, scores
    ):
        if scores == "random":
            use_random_matrices(monkeypatch)
        config = MiningConfig(threshold=0.55, gap_penalty=1.5)
        budget = 37
        expected = oracles.reference_tune(
            toy_model, toy_lexicon, planted, budget, seed=21, base_config=config
        )
        # Three lanes of the largest sample per fill.
        n = max(len(s.pair.source.sentences) for s in planted)
        m = max(len(s.pair.target.sentences) for s in planted)
        monkeypatch.setattr(kernels, "BATCH_BYTES", kernels.fill_bytes(n, m, 3, 1))
        lanes = []
        fill = kernels.fill

        def recorded_fill(sims, mismatch, bonus, gaps):
            assert len(sims) == 1  # the cost table stays one lane wide
            lanes.append(len(gaps))
            return fill(sims, mismatch, bonus, gaps)

        monkeypatch.setattr(kernels, "fill", recorded_fill)
        result = tune(toy_model, toy_lexicon, planted, budget, seed=21, base_config=config)
        assert result == expected
        assert sum(lanes) == budget * len(planted)
        assert len(lanes) >= 3 * len(planted) and max(lanes) > 1

    def test_nw_builds_no_alignment(self, toy_model, toy_lexicon, planted, monkeypatch):
        built = Counter()
        for cls in (align.Match, align.GapSource, align.GapTarget, align.Alignment):

            def counted_init(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted_init)
        lanes = []
        walk = tuning.kept_cells

        def counted_walk(matrices, trials, config):
            cells = walk(matrices, trials, config)
            lanes.append(len(cells))
            return cells

        monkeypatch.setattr(tuning, "kept_cells", counted_walk)
        nw_align(np.eye(2), MiningConfig())  # what the counter sees
        assert built == {"Match": 2, "Alignment": 1}
        built.clear()
        tune(toy_model, toy_lexicon, planted, budget=9, seed=3)
        assert not built
        assert sum(lanes) == 9 * len(planted)

    def test_empty_reference_equals_oracle(self, toy_model, toy_lexicon, planted):
        # An empty reference agrees fully with a trial that keeps no cell
        # and not at all with one that keeps some.
        samples = [*planted[:2], TuningSample(pair=planted[2].pair, reference=())]
        for budget in (1, 12):
            expected = oracles.reference_tune(toy_model, toy_lexicon, samples, budget, seed=8)
            assert tune(toy_model, toy_lexicon, samples, budget, seed=8) == expected


class TestReferenceFile:
    def test_read(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("topicA\t0\t0\ntopicA\t1\t2\ntopicB\t3\t4\n", encoding="utf-8")
        reference = read_reference(path)
        assert reference == {"topicA": {(0, 0): 1, (1, 2): 2}, "topicB": {(3, 4): 3}}
        assert list(reference["topicA"]) == [(0, 0), (1, 2)]

    def test_samples_in_corpus_order_with_sorted_rows(self, tmp_path):
        rng = np.random.default_rng(5)
        pairs = [make_mining_pair(rng, topic)[0] for topic in ("a", "b", "c")]
        path = tmp_path / "reference.tsv"
        path.write_text("c\t3\t4\nc\t1\t1\na\t0\t2\n", encoding="utf-8")
        samples = read_samples(path, pairs)
        assert [s.pair.topic_id for s in samples] == ["a", "c"]
        assert [s.reference for s in samples] == [((0, 2),), ((1, 1), (3, 4))]

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("topicA\t0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            read_reference(path)

    @pytest.mark.parametrize("row", ["topicA\tx\t0", "topicA\t0\t", "topicA\t1.0\t2"])
    def test_non_integer_index_names_line(self, tmp_path, row):
        path = tmp_path / "reference.tsv"
        path.write_text(f"topicA\t0\t0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: indices"):
            read_reference(path)

    # Python's ``int`` reads each of these, and no writer emits one.
    @pytest.mark.parametrize("index", ["1_0", " 1", "1 ", "\u00a01", "١", "１"])
    def test_index_python_also_reads_names_line(self, tmp_path, index):
        path = tmp_path / "reference.tsv"
        path.write_text(f"topicA\t0\t0\ntopicA\t{index}\t2\n", encoding="utf-8")
        message = f"{path}: line 2: indices must be integers, got {index!r} and '2'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_reference(path)

    @pytest.mark.parametrize("row", ["topicA\t-1\t0", "topicA\t2\t-3"])
    def test_negative_index_names_line(self, tmp_path, row):
        path = tmp_path / "reference.tsv"
        path.write_text(f"topicA\t0\t0\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: negative index"):
            read_reference(path)

    def test_duplicate_row_names_both_lines(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("p1\t0\t0\np2\t0\t0\n\np1\t0\t0\n", encoding="utf-8")
        message = "line 4: duplicate reference pair 'p1' 0 0 (first on line 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_reference(path)
