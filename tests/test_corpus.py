"""Document ingestion, article pairing and corpus statistics."""

import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bimine.corpus

from bimine.corpus import (
    Document,
    DocumentPair,
    corpus_stats,
    decimal,
    decimals,
    escape_field,
    ingest_documents,
    load_corpus,
    pair_articles,
    read_bitext,
    read_links,
    read_columns,
    read_parallel,
    save_corpus,
    unescape_field,
    write_bitext,
)
from bimine.lexicon import read_lexicon
from bimine.tuning import read_reference

from oracles import reference_read_rows, table_of


def write_docfile(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for doc_id, title, text in records:
            handle.write(f"{doc_id}\t{title}\t{escape_field(text)}\n")


def make_doc(doc_id, title, lang="en", sentences=("One sentence.",)):
    return Document(id=doc_id, lang=lang, title=title, sentences=tuple(sentences))


class TestIngest:
    def test_single_record_two_sentences(self, tmp_path):
        path = tmp_path / "docs.tsv"
        write_docfile(path, [("d1", "Topic", "Hi. Bye.")])
        docs = ingest_documents(path, "en")
        assert len(docs) == 1
        assert docs[0].sentences == ("Hi.", "Bye.")
        assert docs[0].lang == "en"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_text("", encoding="utf-8")
        assert ingest_documents(path, "en") == []

    def test_markup_only_record_fails(self, tmp_path):
        path = tmp_path / "docs.tsv"
        write_docfile(path, [("d1", "Topic", "<table><tr><td>1</td></tr></table>")])
        with pytest.raises(ValueError) as excinfo:
            ingest_documents(path, "en")
        assert str(excinfo.value) == f"{path}: line 1: document d1 has no sentences"

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_text("d1\tTitle\ttext here\nbroken line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            ingest_documents(path, "en")

    def test_duplicate_id_names_id(self, tmp_path):
        path = tmp_path / "docs.tsv"
        write_docfile(path, [("d1", "A", "Text one."), ("d1", "B", "Text two.")])
        with pytest.raises(ValueError, match="duplicate document id 'd1'"):
            ingest_documents(path, "en")

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "docs.tsv"
        write_docfile(path, [("a", "A", "One."), ("b", "B", "Two."), ("a", "C", "Three.")])
        with pytest.raises(ValueError) as excinfo:
            ingest_documents(path, "en")
        assert str(excinfo.value) == f"{path}: line 3: duplicate document id 'a' (first on line 1)"

    def test_escaped_characters_round_trip(self):
        original = "line one\nline two\twith tab\\backslash"
        assert unescape_field(escape_field(original)) == original

    def test_record_order_preserved(self, tmp_path):
        path = tmp_path / "docs.tsv"
        write_docfile(path, [(f"d{i}", f"T{i}", f"Sentence {i}.") for i in range(5)])
        docs = ingest_documents(path, "en")
        assert [d.id for d in docs] == [f"d{i}" for i in range(5)]


class TestDocument:
    @pytest.mark.parametrize("separator", ["\t", "\n", "\r"])
    def test_sentence_with_tab_or_line_break_rejected(self, separator):
        with pytest.raises(ValueError) as excinfo:
            make_doc("d1", "T", sentences=("Fine.", f"Hello{separator}world."))
        assert str(excinfo.value) == "document d1: sentence 1 contains a tab or line break"

    @pytest.mark.parametrize("separator", ["\t", "\n", "\r"])
    def test_id_or_lang_with_tab_or_line_break_rejected(self, separator):
        with pytest.raises(ValueError) as excinfo:
            make_doc(f"d{separator}1", "T")
        assert str(excinfo.value) == f"document id {f'd{separator}1'!r} contains a tab or line break"
        with pytest.raises(ValueError) as excinfo:
            make_doc("d1", "T", lang=f"x{separator}y")
        assert str(excinfo.value) == (
            f"document d1: lang {f'x{separator}y'!r} contains a tab or line break"
        )

    def test_title_or_topic_with_carriage_return_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            make_doc("d1", "A\rB")
        assert str(excinfo.value) == "document d1: title contains a carriage return"
        with pytest.raises(ValueError) as excinfo:
            DocumentPair("A\rB", make_doc("s", "T", "xs"), make_doc("g", "T", "xt"))
        assert str(excinfo.value) == "pair 'A\\rB': topic_id contains a carriage return"

    def test_accepted_fields_survive_a_saved_corpus(self, tmp_path):
        # Every id, lang, title and topic a Document or DocumentPair
        # accepts comes back from pairs.tsv.
        odd = "a\\t b\\ \u2028 \x0b c"
        pair = DocumentPair(
            "topic\t\n" + odd,
            make_doc("s" + odd, "title\t\n" + odd, "xs" + odd),
            make_doc("g" + odd, odd, "xt" + odd),
        )
        save_corpus([pair], tmp_path)
        assert load_corpus(tmp_path) == [pair]

    def test_accepted_sentences_survive_a_saved_corpus(self, tmp_path):
        # Every sentence a Document accepts comes back from sentences.tsv.
        sentences = ("Tab\\t and backslash \\ stay.", "Unicode \u2028 line separator.", "x\x0by")
        pair = DocumentPair("t", make_doc("s", "T", "xs", sentences), make_doc("g", "T", "xt"))
        save_corpus([pair], tmp_path)
        assert load_corpus(tmp_path) == [pair]


class TestPairArticles:
    def test_two_resolving_links(self):
        source = [make_doc("s1", "Alpha", "en"), make_doc("s2", "Beta", "en")]
        target = [make_doc("t1", "Alfa", "pl"), make_doc("t2", "Brawo", "pl")]
        result = pair_articles(source, target, [("Alpha", "Alfa"), ("Beta", "Brawo")])
        assert len(result.pairs) == 2
        assert result.skipped == 0
        assert result.duplicates == 0
        assert result.pairs[0].topic_id == "Alpha"

    def test_missing_target_is_skipped(self):
        source = [make_doc("s1", "Alpha", "en")]
        target = [make_doc("t1", "Alfa", "pl")]
        result = pair_articles(source, target, [("Alpha", "Missing")])
        assert result.pairs == ()
        assert result.skipped == 1

    def test_shared_source_title_counts_duplicate(self):
        source = [make_doc("s1", "Alpha", "en"), make_doc("s2", "Beta", "en")]
        target = [
            make_doc("t1", "Alfa", "pl"),
            make_doc("t2", "Brawo", "pl"),
            make_doc("t3", "Celta", "pl"),
        ]
        links = [("Alpha", "Alfa"), ("Alpha", "Celta"), ("Beta", "Brawo")]
        result = pair_articles(source, target, links)
        assert len(result.pairs) == 2
        assert result.duplicates == 1
        assert result.pairs[0].target.id == "t1"  # first link wins

    def test_title_matching_trims_whitespace(self):
        source = [make_doc("s1", "Alpha", "en")]
        target = [make_doc("t1", "Alfa", "pl")]
        result = pair_articles(source, target, [("  Alpha ", "Alfa\t")])
        assert len(result.pairs) == 1

    def test_same_language_pair_rejected(self):
        source = [make_doc("s1", "Alpha", "en")]
        target = [make_doc("t1", "Alfa", "en")]
        with pytest.raises(ValueError, match="both sides have language"):
            pair_articles(source, target, [("Alpha", "Alfa")])

    def test_output_bounds_and_uniqueness(self):
        rng = random.Random(5)
        source = [make_doc(f"s{i}", f"S{i}", "en") for i in range(8)]
        target = [make_doc(f"t{i}", f"T{i}", "pl") for i in range(6)]
        links = [(f"S{rng.randrange(10)}", f"T{rng.randrange(8)}") for _ in range(30)]
        result = pair_articles(source, target, links)
        assert len(result.pairs) <= min(len(source), len(target), len(links))
        seen_docs = [p.source.id for p in result.pairs] + [p.target.id for p in result.pairs]
        assert len(seen_docs) == len(set(seen_docs))
        assert len(result.pairs) + result.skipped + result.duplicates == len(links)


class TestCorpusStats:
    def test_counts_by_hand(self):
        stats = corpus_stats([("0.9", "a b", "x y"), ("0.8", "b c", "y z")])
        assert stats.pair_count == 2
        assert stats.source_unique_tokens == 3
        assert stats.target_unique_tokens == 3

    def test_empty(self):
        stats = corpus_stats([])
        assert (stats.pair_count, stats.source_unique_tokens, stats.target_unique_tokens) == (
            0,
            0,
            0,
        )

    def test_case_folding_and_punctuation(self):
        stats = corpus_stats([("0.9", "A a.", "B b")])
        assert stats.source_unique_tokens == 1
        assert stats.target_unique_tokens == 1

    def test_permutation_invariant(self):
        rows = [(f"0.{i}", f"tok{i} shared", f"t{i} common") for i in range(6)]
        shuffled = rows[::-1]
        assert corpus_stats(rows) == corpus_stats(shuffled)


class TestFiles:
    def test_bitext_round_trip_with_formatting(self, tmp_path):
        path = tmp_path / "bitext.tsv"
        write_bitext(path, [(0.98765, "source one", "target one"), (0.5, "s", "t")])
        content = path.read_text(encoding="utf-8")
        assert content.splitlines()[0] == "0.9877\tsource one\ttarget one"
        rows = read_bitext(path)
        assert rows == [(0.9877, "source one", "target one"), (0.5, "s", "t")]

    def test_corpus_directory_round_trip(self, tmp_path):
        source = make_doc("s1", "Alpha", "en", ("First one.", "Second one."))
        target = make_doc("t1", "Alfa", "pl", ("Pierwsze.",))
        result = pair_articles([source], [target], [("Alpha", "Alfa")])
        save_corpus(result.pairs, tmp_path / "corpus")
        loaded = load_corpus(tmp_path / "corpus")
        assert loaded == list(result.pairs)

    @pytest.mark.parametrize("score", ["high", "", "nan", "inf"])
    def test_bitext_bad_score_names_line(self, tmp_path, score):
        path = tmp_path / "bitext.tsv"
        path.write_text(f"0.5\ts\tt\n{score}\ts\tt\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: score"):
            read_bitext(path)

    # Python's ``float`` reads each of these, and no writer emits one.
    @pytest.mark.parametrize("score", ["0.2_5", " 0.5", "0.5 ", "\u00a00.5", "٠.٥", "0.５"])
    def test_bitext_score_python_also_reads_names_line(self, tmp_path, score):
        path = tmp_path / "bitext.tsv"
        path.write_text(f"0.5\ts\tt\n{score}\ts\tt\n", encoding="utf-8")
        message = f"{path}: line 2: score must be a finite number, got {score!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_bitext(path)

    @pytest.mark.parametrize("score", ["-0.0", "5e-324", "1e+300", "0.1234", "-2.5"])
    def test_bitext_reads_every_float_repr(self, tmp_path, score):
        path = tmp_path / "bitext.tsv"
        path.write_text(f"{score}\ts\tt\n", encoding="utf-8")
        ((value, _, _),) = read_bitext(path)
        assert repr(value) == repr(float(score))

    def write_corpus_rows(self, tmp_path, rows):
        source = make_doc("s1", "Alpha", "en", ("First one.",))
        target = make_doc("t1", "Alfa", "pl", ("Pierwsze.",))
        save_corpus(pair_articles([source], [target], [("Alpha", "Alfa")]).pairs, tmp_path)
        sentences = tmp_path / "sentences.tsv"
        sentences.write_text("".join(f"Alpha\t{row}\n" for row in rows), encoding="utf-8")
        return sentences

    def test_corpus_rows_in_any_order(self, tmp_path):
        self.write_corpus_rows(tmp_path, ["src\t1\tB.", "tgt\t0\tX.", "src\t0\tA."])
        (pair,) = load_corpus(tmp_path)
        assert pair.source.sentences == ("A.", "B.")
        assert pair.target.sentences == ("X.",)

    def test_corpus_duplicate_sentence_index_names_line(self, tmp_path):
        sentences = self.write_corpus_rows(
            tmp_path, ["src\t0\tA.", "src\t0\tB.", "src\t5\tC.", "tgt\t0\tX."]
        )
        with pytest.raises(
            ValueError,
            match=rf"^{re.escape(str(sentences))}: line 2: duplicate sentence index 0 "
            r"\(first on line 1\)",
        ):
            load_corpus(tmp_path)

    @pytest.mark.parametrize(
        "rows, line, missing",
        [
            (["src\t0\tA.", "src\t2\tC.", "tgt\t0\tX."], 2, 1),
            (["src\t1\tB.", "tgt\t0\tX."], 1, 0),
            (["src\t0\tA.", "tgt\t0\tX.", "tgt\t3\tY.", "tgt\t1\tZ."], 3, 2),
        ],
    )
    def test_corpus_missing_sentence_index_names_line(self, tmp_path, rows, line, missing):
        sentences = self.write_corpus_rows(tmp_path, rows)
        with pytest.raises(
            ValueError,
            match=rf"^{re.escape(str(sentences))}: line {line}: .* leaves index {missing} missing",
        ):
            load_corpus(tmp_path)

    def test_corpus_unknown_side_names_line(self, tmp_path):
        sentences = self.write_corpus_rows(tmp_path, ["src\t0\tA.", "tgt\t0\tX.", "trg\t1\tY."])
        with pytest.raises(
            ValueError, match=rf"^{re.escape(str(sentences))}: line 3: side must be 'src' or 'tgt'"
        ):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("index", ["one", "-1", "1.5", ""])
    def test_corpus_bad_sentence_index_names_line(self, tmp_path, index):
        source = make_doc("s1", "Alpha", "en", ("First one.", "Second one."))
        target = make_doc("t1", "Alfa", "pl", ("Pierwsze.",))
        save_corpus(pair_articles([source], [target], [("Alpha", "Alfa")]).pairs, tmp_path)
        sentences = tmp_path / "sentences.tsv"
        lines = sentences.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("\t1\t", f"\t{index}\t")
        sentences.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=rf"^{re.escape(str(sentences))}: line 2: sentence index"
        ):
            load_corpus(tmp_path)

    # Python's ``int`` reads each of these as 1, and no writer emits one.
    @pytest.mark.parametrize("index", ["0_1", " 1", "1 ", "\u00a01", "١", "１"])
    def test_corpus_sentence_index_python_also_reads_names_line(self, tmp_path, index):
        rows = ["src\t0\tA.", f"src\t{index}\tB.", "tgt\t0\tX."]
        sentences = self.write_corpus_rows(tmp_path, rows)
        message = (
            f"{sentences}: line 2: sentence index must be a non-negative integer, got {index!r}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_corpus(tmp_path)

    def test_sentence_rows_without_a_pair_row_name_the_first(self, tmp_path):
        sentences = self.write_corpus_rows(tmp_path, ["src\t0\tA.", "tgt\t0\tX."])
        with open(sentences, "a", encoding="utf-8") as handle:
            handle.write("Zeta\tsrc\t0\tZ.\nOrphan\tsrc\t1\tB.\nOrphan\tsrc\t0\tA.\nZeta\ttgt\t0\tY.\n")
        with pytest.raises(ValueError) as excinfo:
            load_corpus(tmp_path)
        assert str(excinfo.value) == f"{sentences}: line 3: topic 'Zeta' has no pair row"

    @pytest.mark.parametrize("text", [" ", "  \u3000"])
    def test_empty_sentence_names_its_own_line(self, tmp_path, text):
        sentences = self.write_corpus_rows(
            tmp_path, ["src\t0\tA.", "tgt\t0\tX.", f"src\t1\t{text}", "src\t2\tC."]
        )
        with pytest.raises(ValueError) as excinfo:
            load_corpus(tmp_path)
        assert str(excinfo.value) == f"{sentences}: line 3: sentence is empty"

    def test_topic_without_sentence_rows_names_pair_line(self, tmp_path):
        source = make_doc("s1", "Alpha", "en", ("First one.",))
        target = make_doc("t1", "Alfa", "pl", ("Pierwsze.",))
        save_corpus(pair_articles([source], [target], [("Alpha", "Alfa")]).pairs, tmp_path)
        pairs = tmp_path / "pairs.tsv"
        with open(pairs, "a", encoding="utf-8") as handle:
            handle.write("Beta\ts2\ten\tBeta\tt2\tpl\tBeta\n")
        with pytest.raises(ValueError) as excinfo:
            load_corpus(tmp_path)
        assert str(excinfo.value) == f"{pairs}: line 2: document s2 has no sentences"

    def test_duplicate_topic_row_names_both_lines(self, tmp_path):
        source = make_doc("s1", "Alpha", "en", ("First one.",))
        target = make_doc("t1", "Alfa", "pl", ("Pierwsze.",))
        save_corpus(pair_articles([source], [target], [("Alpha", "Alfa")]).pairs, tmp_path)
        pairs = tmp_path / "pairs.tsv"
        row = pairs.read_text(encoding="utf-8")
        pairs.write_text(row + row.replace("\ts1\t", "\ts9\t"), encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_corpus(tmp_path)
        assert str(excinfo.value) == f"{pairs}: line 2: duplicate topic 'Alpha' (first on line 1)"

    def test_same_language_pair_row_names_its_line(self, tmp_path):
        source = make_doc("s1", "Alpha", "en", ("First one.",))
        target = make_doc("t1", "Alfa", "pl", ("Pierwsze.",))
        save_corpus(pair_articles([source], [target], [("Alpha", "Alfa")]).pairs, tmp_path)
        pairs = tmp_path / "pairs.tsv"
        row = pairs.read_text(encoding="utf-8").replace("\tpl\t", "\ten\t")
        pairs.write_text(row, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_corpus(tmp_path)
        assert str(excinfo.value) == f"{pairs}: line 1: pair Alpha: both sides have language 'en'"

    @pytest.mark.parametrize("lang", ["", " "])
    def test_blank_language_pair_row_names_its_line(self, tmp_path, lang):
        source = make_doc("s1", "Alpha", "en", ("First one.",))
        target = make_doc("t1", "Alfa", "pl", ("Pierwsze.",))
        save_corpus(pair_articles([source], [target], [("Alpha", "Alfa")]).pairs, tmp_path)
        pairs = tmp_path / "pairs.tsv"
        row = pairs.read_text(encoding="utf-8").replace("\ten\t", f"\t{lang}\t")
        pairs.write_text(row, encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            load_corpus(tmp_path)
        assert str(excinfo.value) == f"{pairs}: line 1: document s1: lang is blank"


SIDES = ("src", "tgt")

# Every reader of a tab-separated file: (files of a valid input, the file
# whose line 3 is corrupted, its width, and the reader given the directory).
READERS = {
    "documents": (
        {"docs.tsv": [f"d{i}\tTitle {i}\tSentence number {i}." for i in range(5)]},
        "docs.tsv", 3, lambda d: ingest_documents(d / "docs.tsv", "en"),
    ),
    "links": (
        {"links.tsv": [f"Alpha {i}\tAlfa {i}" for i in range(5)]},
        "links.tsv", 2, lambda d: read_links(d / "links.tsv"),
    ),
    "parallel": (
        {"parallel.tsv": [f"a{i} b\tx{i} y" for i in range(5)]},
        "parallel.tsv", 2, lambda d: read_parallel(d / "parallel.tsv"),
    ),
    "bitext": (
        {"bitext.tsv": [f"0.{i}000\tsource {i}\ttarget {i}" for i in range(5)]},
        "bitext.tsv", 3, lambda d: read_bitext(d / "bitext.tsv"),
    ),
    "lexicon": (
        {"lexicon.tsv": [f"a{i}\tx{i}\t0.500000" for i in range(5)]},
        "lexicon.tsv", 3, lambda d: table_of(read_lexicon(d / "lexicon.tsv")),
    ),
    "reference": (
        {"reference.tsv": [f"Topic\t{i}\t{i}" for i in range(5)]},
        # Compared without the line numbers the reader keeps per row.
        "reference.tsv", 3,
        lambda d: {t: list(rows) for t, rows in read_reference(d / "reference.tsv").items()},
    ),
    "corpus sentences": (
        {
            "sentences.tsv": [f"T\t{side}\t{i}\tLine {i}." for side in SIDES for i in range(3)],
            "pairs.tsv": ["T\ts1\ten\tT\tt1\tpl\tT"],
        },
        "sentences.tsv", 4, load_corpus,
    ),
    "corpus pairs": (
        {
            "sentences.tsv": [f"T{k}\t{side}\t0\tLine {k}." for k in range(5) for side in SIDES],
            "pairs.tsv": [f"T{k}\ts{k}\ten\tT{k}\tt{k}\tpl\tT{k}" for k in range(5)],
        },
        "pairs.tsv", 7, load_corpus,
    ),
}


def _corrupt(lines, width, corruption):
    """The bytes of ``lines`` with line 3 corrupted (and line 2, in one
    case), and the message expected from reading them (None: they read as
    the clean lines)."""
    lines = [line.encode("utf-8") for line in lines]
    if corruption == "too few fields":
        lines[2] = lines[2].rsplit(b"\t", 1)[0]
        message = f"line 3: expected {width} tab-separated fields, got {width - 1}"
    elif corruption == "too many fields":
        lines[2] += b"\textra"
        message = f"line 3: expected {width} tab-separated fields, got {width + 1}"
    elif corruption == "blank line":
        lines.insert(2, b"")
        message = None
    elif corruption == "byte order mark":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
        message = None
    elif corruption == "short line before a bad byte":
        lines[1] = lines[1].rsplit(b"\t", 1)[0]
        lines[2] = b"\xff" + lines[2]
        message = f"line 2: expected {width} tab-separated fields, got {width - 1}"
    else:
        lines[2] = b"\xff" + lines[2]
        message = "line 3: not UTF-8 (byte 0xff at column 1: invalid start byte)"
    return b"".join(line + b"\n" for line in lines), message


CORRUPTIONS = [
    "too few fields",
    "too many fields",
    "blank line",
    "byte order mark",
    "bad byte",
    "short line before a bad byte",
]


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_shares_the_row_rules(tmp_path, reader, corruption):
    files, corrupted, width, read = READERS[reader]
    clean_dir, bad_dir = tmp_path / "clean", tmp_path / "bad"
    for directory in (clean_dir, bad_dir):
        directory.mkdir()
        for name, lines in files.items():
            (directory / name).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    data, message = _corrupt(files[corrupted], width, corruption)
    (bad_dir / corrupted).write_bytes(data)
    if message is None:
        assert read(bad_dir) == read(clean_dir)
    else:
        with pytest.raises(ValueError) as excinfo:
            read(bad_dir)
        assert str(excinfo.value) == f"{bad_dir / corrupted}: {message}"


@pytest.mark.parametrize("corruption", CORRUPTIONS)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_shares_the_row_rules_across_chunks(tmp_path, reader, corruption):
    # Chunks shorter than a line: every line ends a chunk, or spans several.
    with mock.patch.object(bimine.corpus, "CHUNK_CHARS", 7):
        test_every_reader_shares_the_row_rules(tmp_path, reader, corruption)


class TestReadRows:
    """The row rules of ``read_columns`` at every line break and in front of
    an undecodable line."""

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_bad_byte_far_into_the_file_names_its_line(self, tmp_path, newline):
        # The text reader decodes some kilobytes ahead, so the error must
        # not be placed on the line after the last one read.
        lines = [f"source {i}\ttarget {i}".encode() for i in range(5000)]
        lines[3999] = b"source \xc3(\ttarget"
        path = tmp_path / "rows.tsv"
        path.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ValueError) as excinfo:
            list(read_columns(path, 2))
        assert str(excinfo.value) == (
            f"{path}: line 4000: not UTF-8 (byte 0xc3 at column 8: invalid continuation byte)"
        )

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("reader", [read_columns], ids=["columns"])
    def test_short_line_before_a_bad_byte_is_reported_first(
        self, tmp_path, reader, newline, bom
    ):
        path = tmp_path / "rows.tsv"
        path.write_bytes(bom + newline.join([b"a\tb\tc", b"x\ty", b"z\xff\tq\tr"]) + newline)
        with pytest.raises(ValueError) as excinfo:
            list(reader(path, 3))
        assert str(excinfo.value) == f"{path}: line 2: expected 3 tab-separated fields, got 2"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("reader", [read_columns], ids=["columns"])
    def test_every_line_before_a_bad_byte_is_yielded(self, tmp_path, reader, newline):
        # Far into the file, the rows up to the bad line arrive in order.
        lines = [f"source {i}\ttarget {i}".encode() for i in range(5000)]
        lines[3999] = b"source \xc3(\ttarget"
        lines[3990] = b""
        path = tmp_path / "rows.tsv"
        path.write_bytes(newline.join(lines) + newline)
        rows, error = _rows_of(reader, path, 2)
        assert [lineno for lineno, _ in rows] == [i for i in range(1, 4000) if i != 3991]
        assert rows[-1] == (3999, ["source 3998", "target 3998"])
        assert error == (
            f"{path}: line 4000: not UTF-8 (byte 0xc3 at column 8: invalid continuation byte)"
        )

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("\ufeffa\tb\n\n\nc\td\n", encoding="utf-8")
        assert _rows_of(read_columns, path, 2) == ([(1, ["a", "b"]), (4, ["c", "d"])], None)


def _rows_and_error(chunks):
    """The rows of ``chunks`` until it raises, and the error message."""
    rows = []
    try:
        for chunk in chunks:
            rows.extend(chunk)
    except ValueError as exc:
        return rows, str(exc)
    return rows, None


def _rows_of(reader, path, count):
    """The rows of ``reader`` (``read_columns``) until it raises, and the
    error message."""
    return _rows_and_error(
        [(lineno, fields) for lineno, *fields in zip(numbers, *columns, strict=True)]
        for numbers, columns in reader(path, count)
    )


class TestReadColumns:
    @settings(max_examples=300, deadline=None)
    @given(
        # Lines of one to four fields, blank lines and stray line breaks,
        # so that a short line and a long one may balance in one chunk.
        st.lists(
            st.one_of(
                st.lists(st.text(alphabet="aé", max_size=2), min_size=1, max_size=4).map(
                    "\t".join
                ),
                st.sampled_from(["\r", "\r\n", "\n"]),
            ),
            max_size=12,
        ).map("\n".join),
        st.booleans(),
        st.integers(1, 3),
        st.sampled_from([1, 2, 5, 64, 1 << 14]),
        # Bytes that break UTF-8 alone or before the continuation of "é".
        st.lists(st.tuples(st.integers(0, 200), st.sampled_from([b"\xff", b"\xc3"])), max_size=2),
    )
    # A short line and a long one with, together, the fields of two lines.
    @example("a\tb\nc\td\te\tf", False, 3, 1 << 14, [])
    def test_reads_the_rows_of_the_reference(
        self, tmp_path_factory, text, bom, count, chunk, bad
    ):
        # The rows of the line-at-a-time reference: every line before an
        # error is read, in chunks of any size.
        data = (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8")
        for at, byte in bad:
            at = min(at, len(data))
            data = data[:at] + byte + data[at:]
        path = tmp_path_factory.mktemp("columns") / "rows.tsv"
        path.write_bytes(data)
        expected = _rows_and_error([row] for row in reference_read_rows(path, count))
        with mock.patch.object(bimine.corpus, "CHUNK_CHARS", chunk):
            assert _rows_of(read_columns, path, count) == expected

    def test_bad_byte_far_into_the_file_names_its_line(self, tmp_path):
        # Chunks shorter than a line: the error is placed by the line count
        # carried from chunk to chunk.
        lines = [f"source {i}\ttarget {i}".encode() for i in range(5000)]
        lines[3999] = b"source \xc3(\ttarget"
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(ValueError) as excinfo:
            with mock.patch.object(bimine.corpus, "CHUNK_CHARS", 7):
                list(read_columns(path, 2))
        assert str(excinfo.value) == (
            f"{path}: line 4000: not UTF-8 (byte 0xc3 at column 8: invalid continuation byte)"
        )


def _parses(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


# Numbers as ``repr`` writes them, and text from the characters a number
# is written with, letters ``float`` reads (``inf``, ``nan``), an
# underscore, a space, and digits and letters outside ASCII that ``float``
# reads too.
DECIMAL_FIELDS = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(alphabet="0123456789.eE+-_ infa\u0663\uff13\u00b2\u0130", max_size=7),
)


class TestDecimals:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(DECIMAL_FIELDS, max_size=6))
    @example(["1", "\u0663"])  # an Arabic-Indic 3, which ``float`` reads
    @example(["1_0"])
    @example(["1", ""])
    def test_column_check_equals_the_regex_form(self, fields):
        # The column takes the one ``float`` pass exactly when no field
        # has a character outside ``[0-9.eE+-]`` and each parses, and gives
        # ``decimal`` of each field either way.
        plain = re.search(r"[^0-9.eE+-]", "".join(fields)) is None
        with mock.patch.object(bimine.corpus, "decimal", wraps=decimal) as per_field:
            values = decimals(fields)
        assert per_field.called == (bool(fields) and not (plain and all(map(_parses, fields))))
        expected = np.array([decimal(field) for field in fields], np.float64)
        assert values.dtype == np.float64
        assert values.view(np.int64).tolist() == expected.view(np.int64).tolist()
