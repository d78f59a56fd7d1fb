"""Translation-lexicon estimation and the title merge."""

import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bimine.corpus
import bimine.lexicon
from bimine.lexicon import (
    PRUNE_THRESHOLD,
    Lexicon,
    build_lexicon,
    merge_title_lexicon,
    read_lexicon,
    write_lexicon,
)
from bimine.text import tokenize

from oracles import em_translation_oracle

# Frozen from the EM oracle on [("a b","x y"), ("a","x")] at 10 iterations.
TWO_PAIR_P_X_GIVEN_A = 0.99951171875
TWO_PAIR_P_Y_GIVEN_A = 0.00048828125


# Overlapping vocabularies with repeats; "..." tokenizes to nothing, so a
# sentence of only "..." drops its pair.
_SENTENCE = st.lists(st.sampled_from(["a", "b", "c", "x", "..."]), max_size=5).map(" ".join)


class TestBuildLexicon:
    def test_single_cooccurrence_is_certain(self):
        lexicon = build_lexicon([("a", "x")], iterations=5)
        assert lexicon.prob("a", "x") == 1.0

    def test_two_pair_corpus_matches_oracle(self):
        lexicon = build_lexicon([("a b", "x y"), ("a", "x")], iterations=10)
        assert lexicon.prob("a", "x") == pytest.approx(TWO_PAIR_P_X_GIVEN_A, abs=1e-12)
        assert lexicon.prob("a", "y") == pytest.approx(TWO_PAIR_P_Y_GIVEN_A, abs=1e-12)
        assert lexicon.prob("a", "x") > lexicon.prob("a", "y")
        # b never gets disambiguating evidence in this direction
        assert lexicon.prob("b", "x") == pytest.approx(0.5, abs=1e-12)

    def test_cyclic_corpus_argmax(self):
        lexicon = build_lexicon(
            [("a b", "x y"), ("b c", "y z"), ("c a", "z x")], iterations=10
        )
        for s, expected in (("a", "x"), ("b", "y"), ("c", "z")):
            row = lexicon.translations(s)
            assert max(row, key=row.get) == expected

    def test_matches_oracle_on_random_corpus(self):
        rng = np.random.default_rng(8)
        vocab_s = [f"s{i}" for i in range(6)]
        vocab_t = [f"t{i}" for i in range(6)]
        pairs = []
        for _ in range(30):
            idx = rng.integers(0, 6, size=rng.integers(2, 6))
            pairs.append(
                (" ".join(vocab_s[i] for i in idx), " ".join(vocab_t[i] for i in idx))
            )
        lexicon = build_lexicon(pairs, iterations=7, prune_threshold=0.0)
        oracle = em_translation_oracle(
            [(tokenize(s), tokenize(t)) for s, t in pairs], iterations=7
        )
        for s, row in oracle.items():
            for t, p in row.items():
                assert lexicon.prob(s, t) == p

    def test_rows_sum_to_one_before_pruning(self):
        pairs = [("a b c", "x y z"), ("a", "x"), ("b c", "y z")]
        lexicon = build_lexicon(pairs, iterations=6, prune_threshold=0.0)
        for s in lexicon.source_tokens():
            assert sum(lexicon.translations(s).values()) == pytest.approx(1.0, abs=1e-9)

    def test_pruning_drops_tiny_entries(self):
        lexicon = build_lexicon([("a b", "x y"), ("a", "x")] * 3, iterations=25)
        assert lexicon.prob("a", "y") == 0.0  # fell below the prune threshold
        assert lexicon.prob("a", "x") > 0.999

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_SENTENCE, _SENTENCE), min_size=1, max_size=8),
        st.integers(1, 6),
        st.sampled_from(["zero", "default", "at an entry"]),
        st.data(),
    )
    def test_items_equal_pruned_oracle_in_order(self, pairs, iterations, threshold_kind, data):
        tokenized = [(tokenize(s), tokenize(t)) for s, t in pairs]
        tokenized = [(s, t) for s, t in tokenized if s and t]
        if not tokenized:
            with pytest.raises(ValueError, match="no training pairs"):
                build_lexicon(pairs, iterations)
            return
        oracle = [
            (s, t, p)
            for s, row in em_translation_oracle(tokenized, iterations).items()
            for t, p in row.items()
        ]
        if threshold_kind == "zero":
            threshold = 0.0
        elif threshold_kind == "default":
            threshold = PRUNE_THRESHOLD
        else:  # ``>=`` keeps the entry the threshold was taken from
            threshold = data.draw(st.sampled_from(oracle))[2]
        expected = oracle if threshold == 0.0 else [e for e in oracle if e[2] >= threshold]
        lexicon = build_lexicon(pairs, iterations, threshold)
        assert list(lexicon.items()) == expected
        assert list(lexicon.source_tokens()) == list(dict.fromkeys(s for s, _, _ in expected))

    def test_tokenizes_each_sentence_once(self, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(bimine.lexicon, "tokenize", counting_tokenize)
        pairs = [("a b", "x y"), ("...", "x"), ("a", "x z"), ("b", "")]
        build_lexicon(pairs, iterations=3)
        assert sorted(calls) == sorted(text for pair in pairs for text in pair)

    def test_iteration_python_work_is_bounded_by_target_length(self):
        """Each EM iteration runs Python code a number of times bounded by
        the longest target sentence, not by the number of co-occurrences."""
        rng = np.random.default_rng(5)
        pairs = [
            (
                " ".join(f"s{k}" for k in rng.integers(0, 10, size=rng.integers(1, 7))),
                " ".join(f"t{k}" for k in rng.integers(0, 10, size=rng.integers(1, 9))),
            )
            for _ in range(200)
        ]
        max_target = max(len(tokenize(t)) for _, t in pairs)
        occurrences = sum(len(tokenize(s)) for s, _ in pairs)
        per_iteration = (_line_events(pairs, 11) - _line_events(pairs, 1)) / 10
        assert per_iteration <= 3 * max_target + 10 < occurrences

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="no training pairs"):
            build_lexicon([], iterations=3)
        with pytest.raises(ValueError, match="no training pairs"):
            build_lexicon([("...", "!!!")], iterations=3)


def _line_events(pairs, iterations):
    """Python line events executed in the lexicon module by one build."""
    events = 0
    filename = bimine.lexicon.__file__

    def local(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        build_lexicon(pairs, iterations, prune_threshold=0.0)
    finally:
        sys.settrace(previous)
    return events


class TestCompiledLexicon:
    @staticmethod
    def row(compiled, token):
        names = {i: name for name, i in compiled.ids.items()}
        k = compiled.ids[token] if token in compiled.ids else len(compiled.ids)
        span = slice(compiled.indptr[k], compiled.indptr[k + 1])
        return {names[int(t)]: p for t, p in zip(compiled.targets[span], compiled.probs[span])}

    def test_rows_hold_the_positive_translations(self):
        lexicon = Lexicon({"a": {"x": 0.5, "y": 0.0, "a": 0.5}, "b": {"x": 1.0}, "c": {"y": 0.0}})
        compiled = lexicon.compiled()
        assert self.row(compiled, "a") == {"x": 0.5, "a": 0.5}
        assert self.row(compiled, "b") == {"x": 1.0}
        assert self.row(compiled, "c") == {}
        assert self.row(compiled, "x") == {}  # only ever a target
        assert self.row(compiled, "outside") == {}
        assert sorted(compiled.ids) == ["a", "b", "c", "x", "y"]  # one id per string, both sides

    def test_built_once(self):
        lexicon = Lexicon({"a": {"x": 1.0}})
        assert lexicon.compiled() is lexicon.compiled()

    def test_empty_lexicon(self):
        compiled = Lexicon({}).compiled()
        assert compiled.ids == {}
        assert compiled.indptr.tolist() == [0, 0]
        assert len(compiled.targets) == len(compiled.probs) == 0


class TestMergeTitles:
    def test_title_into_empty_lexicon(self):
        merged, skipped = merge_title_lexicon(Lexicon({}), [("Dog", "Pies")])
        assert skipped == 0
        assert merged.prob("dog", "pies") == 1.0

    def test_renormalizes_existing_row(self):
        merged, _ = merge_title_lexicon(Lexicon({"dog": {"cat": 1.0}}), [("Dog", "Pies")])
        row = merged.translations("dog")
        assert row["cat"] == pytest.approx(2.0 / 3.0)
        assert row["pies"] == pytest.approx(1.0 / 3.0)
        assert sum(row.values()) == pytest.approx(1.0)

    def test_multi_token_title_skipped(self):
        original = Lexicon({"dog": {"cat": 1.0}})
        merged, skipped = merge_title_lexicon(original, [("New York", "Nowy Jork")])
        assert skipped == 1
        assert merged == original

    def test_existing_higher_probability_kept(self):
        merged, _ = merge_title_lexicon(Lexicon({"dog": {"pies": 0.8}}), [("Dog", "Pies")])
        assert merged.prob("dog", "pies") == 1.0  # 0.8 kept, row renormalized


class TestLexiconFile:
    def test_exact_line_format(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(build_lexicon([("a", "x")], iterations=2), path)
        assert path.read_text(encoding="utf-8") == "a\tx\t1.000000\n"

    def test_sorted_by_source_then_descending_probability(self, tmp_path):
        lexicon = Lexicon({"b": {"q": 0.25, "p": 0.75}, "a": {"z": 1.0}})
        path = tmp_path / "lex.tsv"
        write_lexicon(lexicon, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["a\tz\t1.000000", "b\tp\t0.750000", "b\tq\t0.250000"]

    def test_probability_ties_sort_by_target(self, tmp_path):
        path = tmp_path / "lex.tsv"
        write_lexicon(Lexicon({"a": {"y": 0.5, "x": 0.5}}), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["a\tx\t0.500000", "a\ty\t0.500000"]

    def test_round_trip(self, tmp_path):
        lexicon = build_lexicon([("a b", "x y"), ("b c", "y z")], iterations=5)
        path = tmp_path / "lex.tsv"
        write_lexicon(lexicon, path)
        loaded = read_lexicon(path)
        for s, t, p in lexicon.items():
            assert loaded.prob(s, t) == pytest.approx(p, abs=5e-7)


class TestLexiconReader:
    @pytest.mark.parametrize(
        "value", ["nan", "NaN", "inf", "-inf", "-0.5", "-1e-9", "1.000001", "2", "abc", ""]
    )
    def test_bad_probability_names_path_and_line(self, tmp_path, value):
        path = tmp_path / "lex.tsv"
        path.write_text(f"a\tx\t0.500000\nb\ty\t{value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: probability"):
            read_lexicon(path)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_accepts_exactly_the_unit_interval(self, tmp_path_factory, prob):
        path = tmp_path_factory.mktemp("lex") / "lex.tsv"
        path.write_text(f"a\tx\t{prob!r}\n", encoding="utf-8")
        if 0.0 <= prob <= 1.0:
            assert read_lexicon(path).prob("a", "x") == prob
        else:
            with pytest.raises(ValueError, match="line 1: probability"):
                read_lexicon(path)

    # Python's ``float`` reads each of these, and no writer emits one.
    @pytest.mark.parametrize("value", ["0.2_5", " 0.5", "0.5 ", "\u00a00.5", "٠.٥", "0.５"])
    def test_probability_python_also_reads_names_line(self, tmp_path, value):
        path = tmp_path / "lex.tsv"
        path.write_text(f"a\tx\t0.500000\nb\ty\t{value}\n", encoding="utf-8")
        message = f"{path}: line 2: probability must lie in [0, 1], got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_lexicon(path)

    @pytest.mark.parametrize("value", ["-0.0", "5e-324", "1e-05", "0.0", "1.0", "0.999999"])
    def test_every_float_repr_in_range_is_read_exactly(self, tmp_path, value):
        path = tmp_path / "lex.tsv"
        path.write_text(f"a\tx\t{value}\n", encoding="utf-8")
        assert repr(read_lexicon(path).prob("a", "x")) == repr(float(value))

    def test_bounds_are_accepted(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\t0.000000\na\ty\t1.000000\n", encoding="utf-8")
        lexicon = read_lexicon(path)
        assert lexicon.prob("a", "x") == 0.0 and lexicon.prob("a", "y") == 1.0

    def test_duplicate_entry_names_both_lines(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a\tx\t0.9\na\ty\t0.1\nb\tx\t1.0\na\tx\t0.1\n", encoding="utf-8")
        with pytest.raises(
            ValueError,
            match=rf"^{re.escape(str(path))}: line 4: duplicate entry 'a' -> 'x' \(first on line 1\)$",
        ):
            read_lexicon(path)


# Tokens as a lexicon file may hold them: no tab or line break, some
# outside ASCII.
_TOKEN = st.text(alphabet="abxé😀-", min_size=1, max_size=3)
_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.5]), st.floats(0.0, 1.0))
_BAD_PROBABILITY = st.sampled_from(["1.5", "-0.5", "nan", "inf", "0.2_5", " 0.5", "", "x"])


@st.composite
def lexicon_files(draw):
    """A lexicon as the entry lines of a file in shuffled order, so that a
    source's rows are split across lines, with zero probabilities and
    tokens that are only targets; and the table those lines give, read in
    file order (the rows of ``Lexicon(table)`` as the file lays them out)."""
    sources = draw(st.lists(_TOKEN, max_size=6, unique=True))
    only_targets = draw(st.lists(_TOKEN, min_size=1, max_size=4, unique=True))
    row = st.lists(st.sampled_from(sources + only_targets), min_size=1, max_size=5, unique=True)
    entries = [(s, t, draw(_PROBABILITY)) for s in sources for t in draw(row)]
    lines = draw(st.permutations(entries))
    table: dict = {}
    for s, t, p in lines:
        table.setdefault(s, {})[t] = p
    return lines, table


class TestLexiconReaderOracle:
    """``read_lexicon`` against ``Lexicon(table)`` of the same entries, over
    files written in every layout the row rules allow, in chunks of any size."""

    def test_ids_follow_the_rows_not_the_lines(self, tmp_path):
        # Targets that are not sources are numbered by the rows, each
        # source's entries together, as ``Lexicon(table)`` numbers them.
        path = tmp_path / "lex.tsv"
        path.write_text("a\tz\t0.5\nb\ty\t1.0\na\tw\t0.5\n", encoding="utf-8")
        table = {"a": {"z": 0.5, "w": 0.5}, "b": {"y": 1.0}}
        assert list(read_lexicon(path).compiled().ids) == ["a", "b", "z", "w", "y"]
        assert list(Lexicon(table).compiled().ids) == ["a", "b", "z", "w", "y"]

    @staticmethod
    def file_bytes(fields, newline, bom, blanks):
        """The bytes of a file of ``fields`` rows with blank lines inserted
        before the rows listed in ``blanks``, and each row's line number."""
        lines, numbers = [], []
        for k, row in enumerate(fields):
            lines.extend([b""] * blanks.count(k))
            lines.append("\t".join(row).encode("utf-8"))
            numbers.append(len(lines))
        raw = b"".join(line + newline for line in lines)
        return (b"\xef\xbb\xbf" if bom else b"") + raw, numbers

    @settings(max_examples=300, deadline=None)
    @given(
        lexicon_files(),
        st.sampled_from([b"\n", b"\r\n", b"\r"]),
        st.booleans(),
        st.lists(st.integers(0, 40), max_size=4),
        st.sampled_from([1, 7, 64, 1 << 14]),
        st.sampled_from([None, "width", "probability", "duplicate", "utf-8"]),
        st.data(),
    )
    def test_reads_as_the_table_of_its_lines(
        self, tmp_path_factory, file, newline, bom, blanks, chunk, error, data
    ):
        lines, table = file
        fields = [[s, t, repr(p)] for s, t, p in lines]
        message = None
        if error is not None and fields:
            k = data.draw(st.integers(0, len(fields) - 1))
            if error == "width":
                fields[k] = fields[k][:2] if data.draw(st.booleans()) else fields[k] + ["x"]
            elif error == "probability":
                fields[k][2] = data.draw(_BAD_PROBABILITY)
            elif error == "duplicate":
                repeat = data.draw(st.integers(k + 1, len(fields)))
                fields.insert(repeat, [*fields[k][:2], "0.5"])
        raw, numbers = self.file_bytes(fields, newline, bom, blanks)
        if error == "utf-8" and fields:
            k = data.draw(st.integers(0, len(fields) - 1))
            start = sum(len(line) for line in raw.split(newline)[: numbers[k] - 1])
            start += len(newline) * (numbers[k] - 1)
            raw = raw[:start] + b"\xff" + raw[start:]
            message = f"line {numbers[k]}: not UTF-8 (byte 0xff at column 1: invalid start byte)"
        elif error is not None and fields:
            if error == "width":
                width = len(fields[k])
                message = f"line {numbers[k]}: expected 3 tab-separated fields, got {width}"
            elif error == "probability":
                message = f"line {numbers[k]}: probability must lie in [0, 1], got {fields[k][2]!r}"
            else:
                s, t, _ = fields[k]
                message = (
                    f"line {numbers[repeat]}: duplicate entry {s!r} -> {t!r} "
                    f"(first on line {numbers[k]})"
                )
        path = tmp_path_factory.mktemp("lex") / "lex.tsv"
        path.write_bytes(raw)
        with mock.patch.object(bimine.corpus, "CHUNK_CHARS", chunk):
            if message is not None:
                with pytest.raises(ValueError) as excinfo:
                    read_lexicon(path)
                assert str(excinfo.value) == f"{path}: {message}"
                return
            lexicon = read_lexicon(path)
        expected = Lexicon(table)
        assert lexicon == expected
        assert list(lexicon.items()) == list(expected.items())
        assert list(lexicon.source_tokens()) == list(expected.source_tokens())
        assert len(lexicon) == len(expected) == len(lines)
        got, want = lexicon.compiled(), expected.compiled()
        assert list(got.ids.items()) == list(want.ids.items())
        for name in ("indptr", "targets", "probs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
