"""Agreement measurement and random-search parameter tuning."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimine import tuning
from bimine.align import MiningConfig, align_pair_indices
from bimine.tuning import TuningSample, alignment_agreement, read_reference, tune

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
        mined = align_pair_indices(toy_model, toy_lexicon, pair, base, engine="nw")
        reference = tuple((i, j) for _, i, j in mined)
        samples.append(TuningSample(pair=pair, reference=reference))
    assert all(sample.reference for sample in samples)
    return samples


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
            mined = align_pair_indices(toy_model, toy_lexicon, pair, config, engine="nw")
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
        if scores == "random":
            # The toy model scores so cleanly that every trial agrees
            # alike; on uniform random matrices the alignments, and so
            # the winning trial, change with the gap penalty.
            rng = np.random.default_rng(61)
            matrices = {}

            def random_matrix(model, lexicon, source, target):
                key = (tuple(source), tuple(target))
                if key not in matrices:
                    matrices[key] = rng.random((len(source), len(target)))
                return matrices[key]

            monkeypatch.setattr(tuning, "build_score_matrix", random_matrix)
            monkeypatch.setattr(oracles, "build_score_matrix", random_matrix)
        config = MiningConfig(threshold=0.55, gap_penalty=1.5)
        expected = oracles.reference_tune(
            toy_model, toy_lexicon, planted, budget, seed=21, engine=engine, base_config=config
        )
        result = tune(
            toy_model, toy_lexicon, planted, budget, seed=21, engine=engine, base_config=config
        )
        assert result == expected


class TestReferenceFile:
    def test_read(self, tmp_path):
        path = tmp_path / "reference.tsv"
        path.write_text("topicA\t0\t0\ntopicA\t1\t2\ntopicB\t3\t4\n", encoding="utf-8")
        reference = read_reference(path)
        assert reference == {"topicA": [(0, 0), (1, 2)], "topicB": [(3, 4)]}

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
