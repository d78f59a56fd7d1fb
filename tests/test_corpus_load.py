"""``load_corpus`` against its keyed oracle, and ``Document``'s one-pass
sentence check against a per-sentence loop.

``load_corpus`` keeps every sentence row by topic, side and index, and
checks the rows a chunk at a time, parsing plain indices in bulk.
Whatever the row order, the blank lines, the index spellings and the
chunks the file is read in, it must give the pairs, or the first error,
of checking every row on its own (``oracles.reference_load_corpus``).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bimine.corpus
from bimine.corpus import Document, DocumentPair, load_corpus, save_corpus
from oracles import reference_load_corpus, reference_sentence_error


def make_pairs() -> list[DocumentPair]:
    """Pairs of one to twelve sentences a side; one topic id holds a
    backslash and a tab, and one title an escaped newline."""
    rng = np.random.default_rng(31)
    topics = ["alpha", "back\\slash\ttab", "gamma", "delta \\n", "epsilon"]
    pairs = []
    for k, topic in enumerate(topics):
        n, m = (int(size) for size in rng.integers(1, 13, size=2))
        pairs.append(
            DocumentPair(
                topic_id=topic,
                source=Document(
                    id=f"s{k}",
                    lang="eo",
                    title=f"{topic} title\nnext",
                    sentences=tuple(f"Source {k} sentence {i}." for i in range(n)),
                ),
                target=Document(
                    id=f"t{k}",
                    lang="en",
                    title=topic,
                    sentences=tuple(f"Target {k} sentence {j}." for j in range(m)),
                ),
            )
        )
    return pairs


def saved(tmp_path) -> tuple[list[DocumentPair], list[str]]:
    """The pairs, saved under ``tmp_path``, and the lines of their
    ``sentences.tsv``."""
    pairs = make_pairs()
    save_corpus(pairs, tmp_path)
    lines = (tmp_path / "sentences.tsv").read_text(encoding="utf-8").splitlines()
    return pairs, lines


def write_sentences(tmp_path, lines: list[str]) -> None:
    (tmp_path / "sentences.tsv").write_text("".join(f"{line}\n" for line in lines), "utf-8")


def loaded(corpus_dir) -> list[DocumentPair] | str:
    """The pairs ``load_corpus`` reads, or its error message."""
    try:
        return load_corpus(corpus_dir)
    except ValueError as exc:
        return str(exc)


def reference(corpus_dir) -> list[DocumentPair] | str:
    try:
        return reference_load_corpus(corpus_dir)
    except ValueError as exc:
        return str(exc)


def test_saved_corpus_loads_to_its_pairs(tmp_path):
    # The topic with a backslash and a tab is written escaped.
    pairs, lines = saved(tmp_path)
    assert any(line.startswith("back\\\\slash\\ttab\t") for line in lines)
    assert load_corpus(tmp_path) == pairs


def test_shuffled_rows_load_to_equal_pairs(tmp_path):
    pairs, lines = saved(tmp_path)
    order = np.random.default_rng(5).permutation(len(lines))
    write_sentences(tmp_path, [lines[k] for k in order])
    assert load_corpus(tmp_path) == pairs


@pytest.mark.parametrize("chunk", [1, 50])
def test_runs_across_chunks_load_to_equal_pairs(tmp_path, chunk):
    # At 50 characters a chunk holds about one row, so every run of rows
    # of one topic and side spans chunks; at 1 each read grows until it
    # ends a line.
    pairs, lines = saved(tmp_path)
    assert max(map(len, lines)) < 50 < sum(map(len, lines[:2]))
    with mock.patch.object(bimine.corpus, "CHUNK_CHARS", chunk):
        assert load_corpus(tmp_path) == pairs


def test_non_canonical_indices_load_to_equal_pairs(tmp_path):
    pairs, lines = saved(tmp_path)
    rows = [line.split("\t") for line in lines]
    rows[1][2] = "+1"
    rows[2][2] = "02"
    write_sentences(tmp_path, ["\t".join(row) for row in rows])
    assert load_corpus(tmp_path) == pairs


# Two indices that ``corpus.integer`` rejects, which a bulk ``int`` would
# not: one past the 4300 digits ``int`` reads, which it fails on, and an
# Arabic-Indic digit three, which ``str.isdigit`` and ``int`` accept.
_LONG_INDEX = "9" * 5000
_ARABIC_INDEX = "\u0663"

# One edit of the saved rows: (kind, position, value).
_EDITS = st.tuples(
    st.sampled_from(
        ["swap", "move", "drop", "duplicate", "index", "side", "sentence", "topic", "blank"]
    ),
    st.integers(0, 10**6),
    st.sampled_from(
        ["0", "1", "01", "+2", "-1", "x", "", "src", "tgt", "SRC", " ", "alpha"]
        + [_LONG_INDEX, _ARABIC_INDEX]
    ),
)


def edited(lines: list[str], edits) -> list[str]:
    """``lines`` with each edit applied in turn."""
    lines = list(lines)
    for kind, position, value in edits:
        k = position % len(lines)
        fields = lines[k].split("\t")
        if kind == "swap":
            j = (position // len(lines)) % len(lines)
            lines[k], lines[j] = lines[j], lines[k]
        elif kind == "move":
            lines.append(lines.pop(k))
        elif kind == "drop" and len(lines) > 1:
            del lines[k]
        elif kind == "duplicate":
            lines.insert(position % (len(lines) + 1), lines[k])
        elif kind == "blank":
            lines.insert(k, "")
        elif len(fields) == 4:
            column = {"topic": 0, "side": 1, "index": 2, "sentence": 3}.get(kind)
            if column is not None:
                fields[column] = value
                lines[k] = "\t".join(fields)
    return lines


@settings(max_examples=300, deadline=None)
@given(st.lists(_EDITS, max_size=4), st.sampled_from([1, 50, 1 << 14]))
@example(edits=[("index", 3, _LONG_INDEX)], chunk=1)
@example(edits=[("index", 3, _LONG_INDEX)], chunk=50)
@example(edits=[("index", 3, _LONG_INDEX)], chunk=1 << 14)
@example(edits=[("index", 3, _ARABIC_INDEX)], chunk=1)
@example(edits=[("index", 3, _ARABIC_INDEX)], chunk=50)
@example(edits=[("index", 3, _ARABIC_INDEX)], chunk=1 << 14)
def test_equals_keyed_oracle(tmp_path_factory, edits, chunk):
    corpus_dir = tmp_path_factory.mktemp("corpus")
    _, lines = saved(corpus_dir)
    write_sentences(corpus_dir, edited(lines, edits))
    with mock.patch.object(bimine.corpus, "CHUNK_CHARS", chunk):
        assert loaded(corpus_dir) == reference(corpus_dir)


_SENTENCES = st.lists(
    st.sampled_from(["A b.", "c", " ", "", "a\tb", "x\ny", "r\r", "　", "ok ok"]),
    min_size=1,
    max_size=6,
).map(tuple)


@settings(max_examples=300)
@given(_SENTENCES)
def test_document_names_the_first_bad_sentence(sentences):
    expected = reference_sentence_error("d", sentences)
    try:
        Document(id="d", lang="en", title="t", sentences=sentences)
    except ValueError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
