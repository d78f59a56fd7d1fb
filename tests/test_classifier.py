"""Feature extraction, classifier training and calibrated scoring."""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimine import classifier
from bimine.classifier import (
    BLOCK_CELLS,
    FEATURE_COUNT,
    SimilarityModel,
    encode,
    extract_features,
    load_model,
    make_negative_pairs,
    save_model,
    score_pairs,
    tokenizable_pairs,
    train_classifier,
    training_accuracy,
    training_features,
)
from bimine.text import tokenize

from conftest import make_parallel_sentences, training_set
from oracles import extract_features as reference_features
from oracles import (
    lexicon_from_table,
    reference_exp,
    reference_pegasos,
    reference_score_matrix,
    reference_training_features,
    score_from_margin,
)

EMPTY = lexicon_from_table({})


# Lexicon words on both sides and target-only ones, tokens outside the
# lexicon, punctuation-only tokens, non-ASCII text (one that lowercases to
# two characters) and tokens that punctuation or case turn into others.
ENCODE_WORDS = (
    "domo", "Kato", "house", "cat", "zork", "blip", "Ünï", "日本", "ça", "İst",
    "...", "!?", "—", "(domo,", "'zork'", "CAT.", "",
)
ENCODE_LEXICON = lexicon_from_table(
    {"domo": {"house": 0.5, "ünï": 0.5}, "kato": {"cat": 1.0}, "ça": {"日本": 1.0, "x": 0.0}}
)
ENCODE_SENTENCES = st.lists(st.sampled_from(ENCODE_WORDS), max_size=6).map(" ".join)
ENCODE_MODEL = SimilarityModel(
    weights=(0.5, 2.0, 1.5, 1.0, -0.2, 0.8),
    bias=-1.0,
    sigmoid_a=-1.3,
    sigmoid_b=0.1,
    feature_means=(1.0, 0.5, 0.5, 0.4, 1.0, 0.1),
    feature_scales=(0.5, 0.3, 0.3, 0.2, 0.5, 0.2),
)


class TestEncode:
    @settings(max_examples=200, deadline=None)
    @given(sentences=st.lists(ENCODE_SENTENCES, max_size=12))
    def test_ids_are_tokens_through_the_lexicon(self, sentences):
        compiled = ENCODE_LEXICON.compiled()
        ids = compiled.ids
        encoded = encode(compiled, sentences)
        tokens = [tokenize(sentence) for sentence in sentences]
        assert encoded.tokens.tolist() == [len(t) for t in tokens]
        assert encoded.chars.tolist() == [len(sentence) for sentence in sentences]
        flat = [token for sentence in tokens for token in sentence]
        assert len(encoded.ids) == len(flat)
        outside: dict[str, int] = {}
        for token, token_id in zip(flat, encoded.ids.tolist()):
            if token in ids:
                assert token_id == ids[token]
            else:
                assert token_id >= len(ids)
                assert outside.setdefault(token, token_id) == token_id
        # Ids past the lexicon are equal only for equal strings.
        assert len(set(outside.values())) == len(outside)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.lists(ENCODE_SENTENCES, min_size=1, max_size=5),
                st.lists(ENCODE_SENTENCES, min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_pair_names_its_first_untokenizable_sentence(self, pairs):
        # The pairs form one block, encoded by one call: a pair with a
        # sentence without tokens gets its error, and the others are scored.
        results = score_pairs(ENCODE_MODEL, ENCODE_LEXICON, pairs)
        assert len(results) == len(pairs)
        for (sources, targets), result in zip(pairs, results):
            sentences = sources + targets
            empty = [k for k, sentence in enumerate(sentences) if not tokenize(sentence)]
            if not empty:
                expected = reference_score_matrix(ENCODE_MODEL, ENCODE_LEXICON, sources, targets)
                assert np.array_equal(result, expected)
                continue
            k = empty[0]
            side, i = ("source", k) if k < len(sources) else ("target", k - len(sources))
            assert isinstance(result, ValueError)
            assert str(result) == (
                f"{side} sentence {i}: untokenizable sentence: {sentences[k]!r}"
            )


class TestExtractFeatures:
    def test_identical_sentences_empty_lexicon(self):
        assert extract_features("a b", "a b", EMPTY) == [1.0, 0.0, 0.0, 0.0, 1.0, 1.0]

    def test_full_coverage_single_tokens(self):
        lexicon = lexicon_from_table({"a": {"x": 1.0}})
        assert extract_features("a", "x", lexicon) == [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]

    def test_hand_computed_components(self):
        lexicon = lexicon_from_table({"a": {"x": 0.6}})
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
        lexicon = lexicon_from_table({"a": {"x": 0.7}, "b": {"y": 0.4, "z": 0.6}})
        # The same entries with the roles swapped; coverage depends only
        # on which entries have p > 0.
        reversed_lexicon = lexicon_from_table(
            {"x": {"a": 1.0}, "y": {"b": 1.0}, "z": {"b": 1.0}}
        )
        pairs = [("a b", "x y"), ("a a b", "z x"), ("b", "y y z")]
        for source, target in pairs:
            forward = extract_features(source, target, lexicon)
            backward = extract_features(target, source, reversed_lexicon)
            assert backward[1] == pytest.approx(forward[2])
            assert backward[2] == pytest.approx(forward[1])

    def test_components_stay_in_bounds(self):
        rng = np.random.default_rng(3)
        lexicon = lexicon_from_table({"a": {"x": 0.9}, "b": {"y": 0.2}})
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
        x, y = training_set(positives, negatives, toy_lexicon)
        model = train_classifier(x, y, epochs=10, seed=3)
        assert training_accuracy(model, x, y) == 1.0

    def test_single_positive_and_negative_ordering(self):
        lexicon = lexicon_from_table({"a": {"x": 1.0}, "q": {"q": 1.0}})
        x, y = training_set([("a", "x")] * 2, [("a", "q")] * 2, lexicon)
        model = train_classifier(x, y, epochs=5, seed=1)
        (matrix,) = score_pairs(model, lexicon, [(["a"], ["x", "q"])])
        assert matrix[0, 0] > matrix[0, 1]

    def test_deterministic_model_bytes(self, tmp_path, toy_lexicon):
        positives = make_parallel_sentences(np.random.default_rng(60), 20)
        negatives = make_negative_pairs(positives, 61)
        paths = []
        for run in range(2):
            model = train_classifier(
                *training_set(positives, negatives, toy_lexicon), epochs=6, seed=17
            )
            path = tmp_path / f"model{run}.json"
            save_model(model, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_sigmoid_a_is_negative(self, toy_model):
        assert toy_model.sigmoid_a < 0.0

    def test_empty_side_is_an_error(self):
        x = np.arange(2.0 * FEATURE_COUNT).reshape(2, FEATURE_COUNT)
        for label in (1.0, -1.0):
            with pytest.raises(ValueError, match="need positive and negative"):
                train_classifier(x, np.full(2, label), epochs=1, seed=0)

    def test_passed_features_give_the_same_model_and_accuracy(self, toy_lexicon):
        positives = make_parallel_sentences(np.random.default_rng(62), 30)
        positives.append(("domo zork", "plonk"))  # one example on the wrong side
        negatives = make_negative_pairs(positives, 63)
        examples = positives + negatives
        # As in ``bimine train``, the run also holds sentences of a pair
        # that was skipped for having no tokens.
        _, distinct, encoded = tokenizable_pairs([("!!!", "plonk zork"), *examples], toy_lexicon)
        x = training_features(examples, toy_lexicon, distinct, encoded)
        y = np.repeat([1.0, -1.0], [len(positives), len(negatives)])
        assert x.shape == (len(examples), FEATURE_COUNT)
        reference = [reference_features(s, t, toy_lexicon) for s, t in examples]
        assert x.tolist() == reference
        model = train_classifier(x, y, epochs=4, seed=5)
        assert train_classifier(np.array(reference), y, 4, 5) == model
        # The per-example count that the accuracy pass replaces.
        correct = sum(
            (model.margin(reference_features(s, t, toy_lexicon)) > 0) == label
            for side, label in ((positives, True), (negatives, False))
            for s, t in side
        )
        expected = correct / len(examples)
        assert expected < 1.0
        assert training_accuracy(model, x, y) == expected


@st.composite
def shared_sources(draw):
    """Training examples over a few sentences, so that a source sentence
    comes back in examples far apart, with targets repeated and some
    sentences without tokens."""
    sentences = draw(st.lists(ENCODE_SENTENCES, min_size=1, max_size=6))
    sentence = st.sampled_from(sentences)
    return draw(st.lists(st.tuples(sentence, sentence), max_size=16))


class TestTrainingFeaturesOracle:
    """``training_features``, which takes the examples of each source
    sentence as one 1xk pair, against one 1x1 pair per example."""

    @staticmethod
    def assert_equal(examples, lexicon):
        _, distinct, encoded = tokenizable_pairs(examples, lexicon)
        try:
            expected = reference_training_features(examples, lexicon, distinct, encoded)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                training_features(examples, lexicon, distinct, encoded)
            return
        x = training_features(examples, lexicon, distinct, encoded)
        assert x.shape == expected.shape and x.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(examples=shared_sources(), block_cells=st.sampled_from([1, 2, 5, BLOCK_CELLS]))
    @example(examples=[], block_cells=BLOCK_CELLS)
    @example(
        examples=[("domo kato", "house"), ("ça", "cat"), ("domo kato", "日本 ünï"), ("ça", "cat")],
        block_cells=2,
    )
    def test_equals_one_pair_per_example(self, examples, block_cells):
        with mock.patch.object(classifier, "BLOCK_CELLS", block_cells):
            self.assert_equal(examples, ENCODE_LEXICON)

    def test_source_shared_past_a_block(self, toy_lexicon):
        # One source sentence in more examples than a block holds cells,
        # between examples of other sources.
        positives = make_parallel_sentences(np.random.default_rng(64), BLOCK_CELLS + 40)
        source = positives[0][0]
        examples = positives[1:20] + [(source, t) for _, t in positives] + positives[20:40]
        self.assert_equal(examples, toy_lexicon)


@st.composite
def feature_sets(draw):
    """Standardizable feature rows with +-1 labels: separated or
    overlapping classes, optionally on a coarse grid (many equal rows and
    margins) and with a constant column."""
    positives = draw(st.integers(1, 250))
    negatives = draw(st.integers(1, 250))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(positives + negatives, FEATURE_COUNT))
    x[:positives] += draw(st.sampled_from([0.0, 0.5, 4.0]))
    if draw(st.booleans()):
        x = np.round(x * 2.0) / 2.0
    if draw(st.booleans()):
        x[:, draw(st.integers(0, FEATURE_COUNT - 1))] = draw(st.floats(-2.0, 2.0))
    return positives, negatives, x


class TestPegasos:
    """Hinge checks taken in runs equal the one-step-at-a-time loop."""

    @settings(max_examples=60, deadline=None)
    @given(data=feature_sets(), epochs=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(data=(1, 1, np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]])), epochs=3, seed=0)
    def test_equals_reference_loop(self, data, epochs, seed):
        positives, negatives, x = data
        y = np.array([1.0] * positives + [-1.0] * negatives)
        model = train_classifier(x, y, epochs, seed)
        weights, bias, means, scales = reference_pegasos(x, y, epochs, seed)
        assert np.array_equal(model.weights, weights)
        assert model.bias == bias
        assert np.array_equal(model.feature_means, means)
        assert np.array_equal(model.feature_scales, scales)

    def test_run_margins_use_the_dot_kernel(self):
        # The batched margins must round as ``np.dot`` does; ``einsum`` or
        # a plain sum differ in about half of these.  A margin only
        # decides whether a step updates, so a kernel change would alter
        # the model only where a margin rounds across 1.
        rng = np.random.default_rng(7)
        w = rng.normal(size=(20000, FEATURE_COUNT)) * rng.uniform(1e-3, 1e3, size=(20000, 1))
        x = rng.normal(size=(20000, FEATURE_COUNT))
        assert np.array_equal(np.vecdot(w, x), [np.dot(a, b) for a, b in zip(w, x)])


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
        assert model.scores_from_margins(np.array([0.0])).tolist() == [0.5]

    def test_large_margin_saturates_towards_one(self):
        model = SimilarityModel(
            weights=(1.0,) * 6,
            bias=0.0,
            sigmoid_a=-1.0,
            sigmoid_b=0.0,
            feature_means=(0.0,) * 6,
            feature_scales=(1.0,) * 6,
        )
        large, saturated, floor = model.scores_from_margins(np.array([50.0, 1e6, -1e6]))
        assert large > 0.999999
        assert saturated == 1.0
        assert floor == 0.0

    def test_monotone_in_margin(self, toy_model):
        margins = np.linspace(-30, 30, 301)
        scores = toy_model.scores_from_margins(margins)
        assert np.all(np.diff(scores) >= 0.0)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

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
        expected = [score_from_margin(model, d) for d in margins]
        with np.errstate(invalid="ignore", over="ignore"):
            scores = model.scores_from_margins(np.array(margins).reshape(-1, 1))
        assert scores.shape == (len(margins), 1)
        assert scores[:, 0].tolist() == expected

    def test_one_cell_pair_gets_its_error(self, toy_model, toy_lexicon):
        (error,) = score_pairs(toy_model, toy_lexicon, [(["domo"], ["..."])])
        assert isinstance(error, ValueError)
        assert str(error) == "target sentence 0: untokenizable sentence: '...'"

    def test_positives_score_above_negatives(self, toy_model, toy_lexicon):
        positives = make_parallel_sentences(np.random.default_rng(70), 25)
        negatives = make_negative_pairs(positives, 71)
        pos_scores, neg_scores = (
            [m[0, 0] for m in score_pairs(toy_model, toy_lexicon, [([s], [t]) for s, t in pairs])]
            for pairs in (positives, negatives)
        )
        assert min(pos_scores) > max(neg_scores)


def _same_bits(x: np.ndarray) -> bool:
    """``_exp`` of ``x`` equals ``reference_exp`` of it bit for bit."""
    got, want = classifier._exp(x), reference_exp(x)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


class TestExp:
    """``_exp`` is libm's ``exp``, as ``reference_exp`` takes it one
    ``math.exp`` call at a time.  Its one caller passes ``-|z|``, so the
    values are at most 0."""

    def test_equals_reference_on_ten_million_values(self):
        rng = np.random.default_rng(34)
        chunk = 1_000_000
        for _ in range(4):  # uniform over the whole range, results down to 0
            assert _same_bits(rng.uniform(-750.0, 0.0, chunk))
        for _ in range(3):  # the band of subnormal results
            assert _same_bits(rng.uniform(-745.13, -708.4, chunk))
        for _ in range(3):  # random bit patterns with the sign bit set
            bits = rng.integers(0, 2**63, chunk, dtype=np.uint64) | np.uint64(2**63)
            values = bits.view(np.float64)
            assert _same_bits(values[~np.isnan(values)])
        assert _same_bits(np.array([0.0, -0.0, -np.inf, np.nan, -5e-324, -2.2250738585072014e-308]))

    def test_shapes(self):
        grid = np.random.default_rng(35).uniform(-40.0, 0.0, (30, 40))
        for x in (np.array(-1.5), np.empty(0), np.empty((0, 3)), grid[::2, ::3], grid.T):
            assert _same_bits(x)
            assert classifier._exp(x).dtype == np.float64

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(max_value=0.0), max_size=50))
    def test_equals_reference_on_floats_at_most_zero(self, values):
        assert _same_bits(np.array(values, dtype=np.float64))


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bias", True),  # a JSON boolean, which float() reads as 1.0
            ("sigmoid_b", "0.5"),  # a numeric string
            ("weights", {str(k): 0 for k in range(1, 7)}),  # an object: its keys are six strings
            ("feature_scales", "111111"),  # a string of six digits
            ("feature_means", [0.0, 0.0, 0.0, 0.0, 0.0, False]),  # a boolean entry
        ],
    )
    def test_only_json_numbers_accepted(self, tmp_path, field, value):
        path = write_model_json(tmp_path / "model.json", {**VALID_MODEL, field: value})
        with pytest.raises(
            ValueError, match=rf"^{re.escape(str(path))}: {field} is missing or not numeric$"
        ):
            load_model(path)

    def test_integer_entries_accepted(self, tmp_path):
        data = {**VALID_MODEL, "bias": 0, "weights": [1, 0, 1, 0, 1, 0]}
        model = load_model(write_model_json(tmp_path / "model.json", data))
        assert model.bias == 0.0 and model.weights == (1.0, 0.0, 1.0, 0.0, 1.0, 0.0)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_integer_one(self, tmp_path, version):
        path = write_model_json(tmp_path / "model.json", {**VALID_MODEL, "version": version})
        with pytest.raises(ValueError, match="unsupported model format version"):
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
        (score,) = model.scores_from_margins(np.array([margin]))
        assert 0.0 <= score <= 1.0
