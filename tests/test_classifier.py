"""Feature extraction, classifier training and calibrated scoring."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimine.classifier import (
    SimilarityModel,
    extract_features,
    load_model,
    make_negative_pairs,
    save_model,
    similarity,
    train_classifier,
    training_accuracy,
)
from bimine.lexicon import Lexicon

from conftest import make_parallel_sentences

EMPTY = Lexicon({})


class TestExtractFeatures:
    def test_identical_sentences_empty_lexicon(self):
        assert extract_features("a b", "a b", EMPTY) == [1.0, 0.0, 0.0, 0.0, 1.0, 1.0]

    def test_full_coverage_single_tokens(self):
        lexicon = Lexicon({"a": {"x": 1.0}})
        assert extract_features("a", "x", lexicon) == [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]

    def test_hand_computed_components(self):
        lexicon = Lexicon({"a": {"x": 0.6}})
        features = extract_features("a b", "x", lexicon)
        assert features == [2.0, 0.5, 1.0, 0.6, 3.0, 0.0]

    def test_ratios_clip_at_four(self):
        features = extract_features("a b c d e f g h i", "x", EMPTY)
        assert features[0] == 4.0
        assert features[4] == 4.0

    def test_untokenizable_sentence_raises(self):
        with pytest.raises(ValueError, match="untokenizable sentence"):
            extract_features("...", "x", EMPTY)
        with pytest.raises(ValueError, match="untokenizable sentence"):
            extract_features("x", "!!!", EMPTY)

    def test_coverage_components_swap_under_transposition(self):
        lexicon = Lexicon({"a": {"x": 0.7}, "b": {"y": 0.4, "z": 0.6}})
        pairs = [("a b", "x y"), ("a a b", "z x"), ("b", "y y z")]
        for source, target in pairs:
            forward = extract_features(source, target, lexicon)
            backward = extract_features(target, source, lexicon.transposed())
            assert backward[1] == pytest.approx(forward[2])
            assert backward[2] == pytest.approx(forward[1])

    def test_components_stay_in_bounds(self):
        rng = np.random.default_rng(3)
        lexicon = Lexicon({"a": {"x": 0.9}, "b": {"y": 0.2}})
        vocab = ["a", "b", "c", "x", "y", "z"]
        for _ in range(50):
            source = " ".join(rng.choice(vocab, size=rng.integers(1, 6)))
            target = " ".join(rng.choice(vocab, size=rng.integers(1, 6)))
            f = extract_features(source, target, lexicon)
            assert all(np.isfinite(f))
            for k in (1, 2, 3, 5):
                assert 0.0 <= f[k] <= 1.0
            for k in (0, 4):
                assert 0.0 <= f[k] <= 4.0


class TestNegativePairs:
    def test_never_pairs_with_own_target(self):
        positives = [(f"s{i}", f"t{i}") for i in range(9)]
        negatives = make_negative_pairs(positives, seed=11)
        assert len(negatives) == len(positives)
        for (src, tgt), (_, neg_tgt) in zip(positives, negatives):
            assert neg_tgt != tgt

    def test_deterministic(self):
        positives = [(f"s{i}", f"t{i}") for i in range(7)]
        assert make_negative_pairs(positives, 5) == make_negative_pairs(positives, 5)

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            make_negative_pairs([("s", "t")], 1)


class TestTraining:
    def test_separable_toy_set_reaches_full_accuracy(self, toy_lexicon):
        positives = make_parallel_sentences(np.random.default_rng(50), 40)
        negatives = make_negative_pairs(positives, 51)
        model = train_classifier(positives, negatives, toy_lexicon, epochs=10, seed=3)
        assert training_accuracy(model, positives, negatives, toy_lexicon) == 1.0

    def test_single_positive_and_negative_ordering(self):
        lexicon = Lexicon({"a": {"x": 1.0}, "q": {"q": 1.0}})
        model = train_classifier([("a", "x")] * 2, [("a", "q")] * 2, lexicon, epochs=5, seed=1)
        assert similarity(model, "a", "x", lexicon) > similarity(model, "a", "q", lexicon)

    def test_deterministic_model_bytes(self, tmp_path, toy_lexicon):
        positives = make_parallel_sentences(np.random.default_rng(60), 20)
        negatives = make_negative_pairs(positives, 61)
        paths = []
        for run in range(2):
            model = train_classifier(positives, negatives, toy_lexicon, epochs=6, seed=17)
            path = tmp_path / f"model{run}.json"
            save_model(model, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_sigmoid_a_is_negative(self, toy_model):
        assert toy_model.sigmoid_a < 0.0

    def test_empty_side_is_an_error(self, toy_lexicon):
        with pytest.raises(ValueError):
            train_classifier([], [("a", "b")], toy_lexicon, epochs=1, seed=0)


class TestScoring:
    def test_sigmoid_midpoint(self):
        model = SimilarityModel(
            weights=(1.0,) * 6,
            bias=0.0,
            sigmoid_a=-1.0,
            sigmoid_b=0.0,
            feature_means=(0.0,) * 6,
            feature_scales=(1.0,) * 6,
        )
        assert model.score_from_margin(0.0) == 0.5

    def test_large_margin_saturates_towards_one(self):
        model = SimilarityModel(
            weights=(1.0,) * 6,
            bias=0.0,
            sigmoid_a=-1.0,
            sigmoid_b=0.0,
            feature_means=(0.0,) * 6,
            feature_scales=(1.0,) * 6,
        )
        assert model.score_from_margin(50.0) > 0.999999
        assert model.score_from_margin(1e6) == 1.0
        assert model.score_from_margin(-1e6) == 0.0

    def test_monotone_in_margin(self, toy_model):
        margins = np.linspace(-30, 30, 301)
        scores = [toy_model.score_from_margin(d) for d in margins]
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        assert all(0.0 <= s <= 1.0 for s in scores)

    @settings(max_examples=100, deadline=None)
    @given(
        sigmoid_a=st.floats(-10.0, -1e-3),
        sigmoid_b=st.floats(-10.0, 10.0),
        margins=st.lists(
            st.one_of(st.floats(-100.0, 100.0), st.floats(allow_nan=True, allow_infinity=True)),
            min_size=1,
            max_size=40,
        ),
    )
    def test_array_sigmoid_equals_scalar_bit_for_bit(self, sigmoid_a, sigmoid_b, margins):
        model = SimilarityModel(
            weights=(1.0,) * 6,
            bias=0.0,
            sigmoid_a=sigmoid_a,
            sigmoid_b=sigmoid_b,
            feature_means=(0.0,) * 6,
            feature_scales=(1.0,) * 6,
        )
        expected = [model.score_from_margin(d) for d in margins]
        with np.errstate(invalid="ignore", over="ignore"):
            scores = model.scores_from_margins(np.array(margins).reshape(-1, 1))
        assert scores.shape == (len(margins), 1)
        assert scores[:, 0].tolist() == expected

    def test_positives_score_above_negatives(self, toy_model, toy_lexicon):
        positives = make_parallel_sentences(np.random.default_rng(70), 25)
        negatives = make_negative_pairs(positives, 71)
        pos_scores = [similarity(toy_model, s, t, toy_lexicon) for s, t in positives]
        neg_scores = [similarity(toy_model, s, t, toy_lexicon) for s, t in negatives]
        assert min(pos_scores) > max(neg_scores)


class TestModelFile:
    def test_round_trip_is_value_exact(self, tmp_path, toy_model):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        assert load_model(path) == toy_model

    def test_version_checked(self, tmp_path, toy_model):
        path = tmp_path / "model.json"
        save_model(toy_model, path)
        import json

        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unsupported model format version"):
            load_model(path)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="feature scales"):
            SimilarityModel(
                weights=(0.0,) * 6,
                bias=0.0,
                sigmoid_a=-1.0,
                sigmoid_b=0.0,
                feature_means=(0.0,) * 6,
                feature_scales=(1.0,) * 5 + (0.0,),
            )

    def test_nonnegative_sigmoid_a_rejected(self):
        with pytest.raises(ValueError, match="sigmoid_a"):
            SimilarityModel(
                weights=(0.0,) * 6,
                bias=0.0,
                sigmoid_a=0.0,
                sigmoid_b=0.0,
                feature_means=(0.0,) * 6,
                feature_scales=(1.0,) * 6,
            )


VALID_MODEL = {
    "version": 1,
    "weights": [0.5, 1.0, 1.0, 0.5, 0.1, 0.2],
    "bias": -0.3,
    "sigmoid_a": -1.5,
    "sigmoid_b": 0.2,
    "feature_means": [1.0, 0.5, 0.5, 0.4, 1.0, 0.1],
    "feature_scales": [0.3, 0.2, 0.2, 0.3, 0.3, 0.1],
}
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
SCALAR_FIELDS = ("bias", "sigmoid_a", "sigmoid_b")
VECTOR_FIELDS = ("weights", "feature_means", "feature_scales")


def write_model_json(path, data):
    # json writes NaN and Infinity literals, which json.load reads back.
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestModelLoaderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(SCALAR_FIELDS), bad=NON_FINITE)
    def test_non_finite_scalar_named(self, tmp_path_factory, field, bad):
        path = tmp_path_factory.mktemp("model") / "model.json"
        write_model_json(path, {**VALID_MODEL, field: bad})
        with pytest.raises(ValueError, match=field):
            load_model(path)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(VECTOR_FIELDS), index=st.integers(0, 5), bad=NON_FINITE)
    def test_non_finite_vector_entry_named(self, tmp_path_factory, field, index, bad):
        values = list(VALID_MODEL[field])
        values[index] = bad
        path = tmp_path_factory.mktemp("model") / "model.json"
        write_model_json(path, {**VALID_MODEL, field: values})
        with pytest.raises(ValueError, match=field):
            load_model(path)

    @settings(max_examples=40, deadline=None)
    @given(index=st.integers(0, 5), bad=st.floats(max_value=0.0, allow_nan=False))
    def test_nonpositive_scale_named(self, index, bad):
        scales = list(VALID_MODEL["feature_scales"])
        scales[index] = bad
        with pytest.raises(ValueError, match="feature_scales"):
            SimilarityModel.from_dict({**VALID_MODEL, "feature_scales": scales})

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(VECTOR_FIELDS), length=st.integers(0, 12).filter(lambda n: n != 6))
    def test_wrong_length_named(self, field, length):
        with pytest.raises(ValueError, match=field):
            SimilarityModel.from_dict({**VALID_MODEL, field: [1.0] * length})

    @pytest.mark.parametrize("field", SCALAR_FIELDS + VECTOR_FIELDS)
    def test_missing_or_non_numeric_named(self, field):
        missing = {key: value for key, value in VALID_MODEL.items() if key != field}
        with pytest.raises(ValueError, match=field):
            SimilarityModel.from_dict(missing)
        with pytest.raises(ValueError, match=field):
            SimilarityModel.from_dict({**VALID_MODEL, field: "abc"})

    def test_error_names_the_file(self, tmp_path):
        path = write_model_json(tmp_path / "model.json", {**VALID_MODEL, "sigmoid_a": float("nan")})
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: sigmoid_a"):
            load_model(path)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
        sigmoid_a=st.floats(-1e3, -1e-9),
        scales=st.lists(st.floats(1e-6, 1e6), min_size=6, max_size=6),
        margin=st.floats(-1e3, 1e3),
    )
    def test_finite_models_load_and_score_in_unit_interval(
        self, weights, sigmoid_a, scales, margin
    ):
        model = SimilarityModel.from_dict(
            {**VALID_MODEL, "weights": weights, "sigmoid_a": sigmoid_a, "feature_scales": scales}
        )
        assert 0.0 <= model.score_from_margin(margin) <= 1.0
