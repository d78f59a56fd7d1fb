"""Document store: ingestion, article pairing and corpus statistics.

All corpus data lives in flat tab-separated files so that runs are
reproducible and diffable.  A document file carries one article per
line (``id<TAB>title<TAB>text`` with tabs/newlines escaped), a link
table carries one ``source_title<TAB>target_title`` pair per line, and
a paired corpus directory holds the resolved article pairs plus their
segmented sentences.  Every reader of these files, and of the lexicon
and reference files, takes its rows a chunk of lines at a time from
``read_columns``, which holds the rules they share: encoding, blank
lines, width and error location.  Numbers in
these files are read by ``decimal``, ``decimals`` and ``integer``, which
take only what ``repr`` writes.
"""

from __future__ import annotations

import math
import os
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .text import clean_markup, segment_sentences, tokenize


@dataclass(frozen=True)
class Document:
    """One article in one language, already cleaned and segmented.

    Its fields are checked when it is built: a non-empty id, a non-blank
    language, at least one sentence, no blank sentence, and no tab or
    line break where its file stores the field unescaped.  All the
    sentences are checked in one pass; they are looked at one by one
    only to name the sentence that fails.
    """

    id: str
    lang: str
    title: str
    sentences: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        # pairs.tsv stores id and lang unescaped, and ``escape_field``
        # has no escape for a carriage return.
        if _has_break(self.id):
            raise ValueError(f"document id {self.id!r} contains a tab or line break")
        if _has_break(self.lang):
            raise ValueError(f"document {self.id}: lang {self.lang!r} contains a tab or line break")
        if not self.lang.strip():
            raise ValueError(f"document {self.id}: lang is blank")
        if "\r" in self.title:
            raise ValueError(f"document {self.id}: title contains a carriage return")
        if not self.sentences:
            raise ValueError(f"document {self.id} has no sentences")
        if all(map(str.strip, self.sentences)) and not _has_break("".join(self.sentences)):
            return
        for index, sentence in enumerate(self.sentences):
            if not sentence.strip():
                raise ValueError(f"document {self.id} contains an empty sentence")
            # sentences.tsv stores a sentence unescaped, one per line.
            if _has_break(sentence):
                raise ValueError(
                    f"document {self.id}: sentence {index} contains a tab or line break"
                )


def _has_break(text: str) -> bool:
    return "\t" in text or "\n" in text or "\r" in text


@dataclass(frozen=True)
class DocumentPair:
    """A topic-aligned article pair across two languages."""

    topic_id: str
    source: Document
    target: Document

    def __post_init__(self) -> None:
        if "\r" in self.topic_id:
            raise ValueError(f"pair {self.topic_id!r}: topic_id contains a carriage return")
        if self.source.lang == self.target.lang:
            raise ValueError(
                f"pair {self.topic_id}: both sides have language {self.source.lang!r}"
            )


@dataclass(frozen=True)
class CorpusStats:
    pair_count: int
    source_unique_tokens: int
    target_unique_tokens: int


@dataclass(frozen=True)
class PairingResult:
    pairs: tuple[DocumentPair, ...]
    skipped: int
    duplicates: int


_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n"}
_UNESCAPE_RE = re.compile(r"\\([\\tn])")
_UNESCAPE_MAP = {"\\": "\\", "t": "\t", "n": "\n"}


def escape_field(text: str) -> str:
    for raw, esc in _ESCAPES.items():
        text = text.replace(raw, esc)
    return text


def unescape_field(text: str) -> str:
    if "\\" not in text:
        return text
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPE_MAP[m.group(1)], text)


# Characters ``read_columns`` decodes at a time: enough lines that each
# column operation covers hundreds of fields, few enough that a chunk's
# fields stay small beside what a reader builds from them.  Of 4k to
# 256k, 16k read the benchmark's 22,178-line lexicon fastest in a forked
# process, touching the fewest new pages.
CHUNK_CHARS = 1 << 14


def read_columns(
    path: str | os.PathLike, count: int
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """Yield the non-blank lines of a tab-separated file in chunks of the
    whole lines of about ``CHUNK_CHARS`` characters, as ``(line numbers,
    columns)``: ``columns[c][k]`` is field ``c`` of line ``numbers[k]``.

    These are the rules of the format every reader shares: the file is
    UTF-8 with any leading byte order mark dropped, LF, CRLF and CR end a
    line, blank lines are skipped but counted, and a line that is not
    ``count`` fields wide or not UTF-8 is rejected as ``path: line N:
    ...``, once every line before it has been yielded.
    """
    first = 1  # the line number of the next chunk's first line
    with open(path, encoding="utf-8-sig") as handle:
        rest = ""  # a line begun but not yet ended
        try:
            while True:
                # A line longer than a chunk doubles the next read.
                data = handle.read(max(CHUNK_CHARS, len(rest)))
                text = rest + data
                if not data:
                    if text:
                        yield from _columns(path, text, first, count)
                    return
                end = text.rfind("\n")
                if end >= 0:
                    body, rest = text[:end], text[end + 1 :]
                    yield from _columns(path, body, first, count)
                    first += body.count("\n") + 1
                else:
                    rest = text
        except UnicodeDecodeError:
            pass
    body, error = _undecodable(path, first)
    yield from _columns(path, body, first, count)
    raise ValueError(error)


def _columns(
    path: str | os.PathLike, body: str, first: int, count: int
) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    # The columns of ``body``, lines joined by "\n" with the first numbered
    # ``first``; split at once unless a line is blank or of another width,
    # and else line by line.
    lines = body.count("\n") + 1
    blank = body[:1] in ("", "\n") or body[-1:] == "\n" or "\n\n" in body
    columns = None if blank else _split(body, lines, count)
    if columns is not None:
        yield range(first, first + lines), columns
        return
    numbers: list[int] = []
    kept: list[str] = []
    for lineno, line in enumerate(body.split("\n"), first):
        if not line:
            continue
        width = line.count("\t") + 1
        if width != count:
            if kept:
                yield numbers, _split("\n".join(kept), len(kept), count)
            raise ValueError(_wrong_width(path, lineno, count, width))
        numbers.append(lineno)
        kept.append(line)
    if kept:
        yield numbers, _split("\n".join(kept), len(kept), count)


def _split(body: str, lines: int, count: int) -> list[list[str]] | None:
    # The columns of ``lines`` non-blank lines joined by "\n", or None if
    # one is not ``count`` fields wide.  Split with each line break kept as
    # a field of its own, the breaks fall on every (count+1)-th field
    # exactly when every line has ``count`` fields.
    fields = body.replace("\n", "\t\n\t").split("\t")
    width = count + 1
    if len(fields) == lines * width - 1 and fields[count::width] == ["\n"] * (lines - 1):
        return [fields[c::width] for c in range(count)]
    return None


def _wrong_width(path: str | os.PathLike, lineno: int, count: int, got: int) -> str:
    return f"{path}: line {lineno}: expected {count} tab-separated fields, got {got}"


# What ``repr`` writes for a float or an int uses only these characters.
# Python's ``float`` and ``int`` also take underscores, surrounding
# whitespace, non-ASCII digits and words such as ``inf``, none of which a
# writer of this package emits.
_NOT_DECIMAL = re.compile(r"[^0-9.eE+-]")
_NOT_INTEGER = re.compile(r"[^0-9+-]")


def decimal(field: str) -> float:
    """The number in ``field`` if it is written as ``repr`` writes a float
    or an int (ASCII digits, sign, point and exponent), else NaN, which
    each reader rejects with its own message."""
    if _NOT_DECIMAL.search(field) is None:
        try:
            return float(field)
        except ValueError:
            pass
    return math.nan


def decimals(fields: Sequence[str]) -> np.ndarray:
    """``decimal`` of each field, as float64: one check and one ``float``
    pass over a column of plain numbers."""
    if _NOT_DECIMAL.search("".join(fields)) is None:
        try:
            return np.fromiter(map(float, fields), np.float64, len(fields))
        except ValueError:
            pass
    return np.fromiter(map(decimal, fields), np.float64, len(fields))


def integer(field: str) -> int | None:
    """The integer in ``field`` if it is written with ASCII digits and an
    optional sign, else ``None``."""
    if _NOT_INTEGER.search(field) is None:
        try:
            return int(field)
        except ValueError:  # no digits, a misplaced sign, or too many digits
            pass
    return None


def _undecodable(path: str | os.PathLike, first: int) -> tuple[str, str]:
    """The text of lines ``first`` up to the first line of ``path`` that is
    not UTF-8, joined by line feeds, and the error for that line.

    The text reader decodes ahead of the line it yields, so its error
    locates neither the line nor the lines before it; the file is scanned
    again in binary, with the same line breaks, only when it fails.
    """
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            body = b"\n".join(lines[first - 1 : lineno - 1])
            return body.decode("utf-8-sig" if first == 1 else "utf-8"), (
                f"{path}: line {lineno}: not UTF-8 (byte {raw[exc.start]:#04x} "
                f"at column {exc.start + 1}: {exc.reason})"
            )
    return "", f"{path}: changed while it was read"


def ingest_documents(path: str | os.PathLike, lang: str) -> list[Document]:
    """Read a document file, clean and segment every record.

    Raises ValueError naming the offending line on malformed input,
    duplicate ids, or records that clean down to no sentences.
    """
    documents: list[Document] = []
    first_line: dict[str, int] = {}  # document id -> line it first appears on
    for numbers, columns in read_columns(path, 3):
        for lineno, doc_id, title, raw in zip(numbers, *columns):
            if doc_id in first_line:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate document id {doc_id!r} "
                    f"(first on line {first_line[doc_id]})"
                )
            first_line[doc_id] = lineno
            sentences = tuple(segment_sentences(clean_markup(unescape_field(raw))))
            try:
                documents.append(
                    Document(id=doc_id, lang=lang, title=title.strip(), sentences=sentences)
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return documents


def pair_articles(
    source_docs: Sequence[Document],
    target_docs: Sequence[Document],
    links: Iterable[tuple[str, str]],
) -> PairingResult:
    """Resolve title links into document pairs.

    Titles match exactly after whitespace trimming.  Links that do not
    resolve on both sides are skipped; links that would reuse an already
    paired document count as duplicates.  The first link naming a
    document wins.
    """
    by_source_title = {}
    for doc in source_docs:
        by_source_title.setdefault(doc.title, doc)
    by_target_title = {}
    for doc in target_docs:
        by_target_title.setdefault(doc.title, doc)

    pairs: list[DocumentPair] = []
    used_source: set[str] = set()
    used_target: set[str] = set()
    skipped = 0
    duplicates = 0
    for source_title, target_title in links:
        source = by_source_title.get(source_title.strip())
        target = by_target_title.get(target_title.strip())
        if source is None or target is None:
            skipped += 1
            continue
        if source.id in used_source or target.id in used_target:
            duplicates += 1
            continue
        used_source.add(source.id)
        used_target.add(target.id)
        pairs.append(DocumentPair(topic_id=source.title, source=source, target=target))
    return PairingResult(pairs=tuple(pairs), skipped=skipped, duplicates=duplicates)


def corpus_stats(bitext: Sequence[tuple[object, str, str]]) -> CorpusStats:
    """Count sentence pairs and unique tokens per side of mined bitext."""
    source_tokens: set[str] = set()
    target_tokens: set[str] = set()
    for _, source_sentence, target_sentence in bitext:
        source_tokens.update(tokenize(source_sentence))
        target_tokens.update(tokenize(target_sentence))
    return CorpusStats(
        pair_count=len(bitext),
        source_unique_tokens=len(source_tokens),
        target_unique_tokens=len(target_tokens),
    )


def read_links(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Read a link or title table of ``source<TAB>target`` rows."""
    return [row for _, columns in read_columns(path, 2) for row in zip(*columns)]


def read_parallel(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Read a training corpus of ``source<TAB>target`` sentence pairs."""
    # Not a call of ``read_links``: ``perfbench/tracing.py`` counts the
    # bytes each of the two reads, and would count a nested call twice.
    return [row for _, columns in read_columns(path, 2) for row in zip(*columns)]


def write_bitext(path: str | os.PathLike, rows: Iterable[tuple[float, str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for score, source_sentence, target_sentence in rows:
            handle.write(f"{float(score):.4f}\t{source_sentence}\t{target_sentence}\n")


def read_bitext(path: str | os.PathLike) -> list[tuple[float, str, str]]:
    rows = []
    for numbers, (score_fields, sources, targets) in read_columns(path, 3):
        scores = decimals(score_fields)
        bad = np.flatnonzero(~np.isfinite(scores))
        if len(bad):
            raise ValueError(
                f"{path}: line {numbers[bad[0]]}: score must be a finite number, "
                f"got {score_fields[bad[0]]!r}"
            )
        rows.extend(zip(scores.tolist(), sources, targets))
    return rows


def corpus_files(corpus_dir: str | os.PathLike) -> list[str]:
    """The two files of a paired corpus directory, ``[pairs.tsv path,
    sentences.tsv path]``: what ``save_corpus`` writes, ``load_corpus``
    reads and the run manifests of ``tune`` and ``mine`` digest."""
    return [os.path.join(corpus_dir, "pairs.tsv"), os.path.join(corpus_dir, "sentences.tsv")]


def save_corpus(pairs: Sequence[DocumentPair], out_dir: str | os.PathLike) -> None:
    """Write a paired corpus directory (pairs.tsv + sentences.tsv)."""
    os.makedirs(out_dir, exist_ok=True)
    pairs_path, sentences_path = corpus_files(out_dir)
    with open(pairs_path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(
                "\t".join(
                    [
                        escape_field(pair.topic_id),
                        pair.source.id,
                        pair.source.lang,
                        escape_field(pair.source.title),
                        pair.target.id,
                        pair.target.lang,
                        escape_field(pair.target.title),
                    ]
                )
                + "\n"
            )
    with open(sentences_path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            topic = escape_field(pair.topic_id)
            for side, doc in (("src", pair.source), ("tgt", pair.target)):
                for index, sentence in enumerate(doc.sentences):
                    handle.write(f"{topic}\t{side}\t{index}\t{sentence}\n")


def load_corpus(corpus_dir: str | os.PathLike) -> list[DocumentPair]:
    """Read a paired corpus directory written by ``save_corpus``.

    The sentence indices of each topic and side must be exactly
    ``0..k-1`` (in any row order) and the side ``src`` or ``tgt``;
    anything else is rejected as ``path: line N: ...``, since a
    reference alignment would otherwise point at other sentences.  So
    are an empty sentence, a sentence row whose topic has no pair row
    (at its first such line), a second pair row of one topic, and a pair
    row whose documents fail their checks, such as a topic without
    sentence rows or two sides of one language.

    Each file is read once.  Sentence rows are kept by topic, side and
    index, and checked a chunk at a time; a chunk is walked row by row only
    to find its first bad row, reported after the rows before it.
    """
    pairs_path, sentences_path = corpus_files(corpus_dir)
    # (topic, side) -> sentence index -> row; line_of[row] and sentence_of[row]
    # are the row's line number and sentence.
    sentences: defaultdict[tuple[str, str], dict[int, int]] = defaultdict(dict)
    line_of: list[int] = []
    sentence_of: list[str] = []
    for numbers, (topics, sides, indices, texts) in read_columns(sentences_path, 4):
        digits = "".join(indices)  # ``int`` reads < 19 ASCII digits as ``integer`` does
        plain = digits.isascii() and digits.isdigit() and all(indices)
        plain = plain and max(map(len, indices)) < 19
        positions = list(map(int if plain else integer, indices))
        ok = sides.count("src") + sides.count("tgt") == len(texts) and all(map(str.strip, texts))
        errors = [] if plain and ok else map(_sentence_error, sides, positions, indices, texts)
        end, error = next(((row, e) for row, e in enumerate(errors) if e), (len(texts), None))
        keys = zip(map(unescape_field, topics) if "\\" in "".join(topics) else topics, sides)
        line_of.extend(numbers[:end])
        sentence_of.extend(texts[:end])
        for key, position, row in zip(keys, positions, range(len(line_of) - end, len(line_of))):
            if sentences[key].setdefault(position, row) != row:
                raise ValueError(
                    f"{sentences_path}: line {line_of[row]}: duplicate sentence index "
                    f"{position} (first on line {line_of[sentences[key][position]]})"
                )
        if error:
            raise ValueError(f"{sentences_path}: line {numbers[end]}: {error}")
    documents: defaultdict[tuple[str, str], tuple[str, ...]] = defaultdict(tuple)
    for key, rows in sentences.items():
        if max(rows) >= len(rows):
            expected, position = next(p for p in enumerate(sorted(rows)) if p[0] != p[1])
            raise ValueError(
                f"{sentences_path}: line {line_of[rows[position]]}: sentence index "
                f"{position} of {key[0]!r} {key[1]} leaves index {expected} missing"
            )
        documents[key] = tuple(map(sentence_of.__getitem__, map(rows.get, range(len(rows)))))

    pairs: list[DocumentPair] = []
    first_line: dict[str, int] = {}  # topic -> the pair row it first appears on
    for numbers, columns in read_columns(pairs_path, 7):
        for lineno, *fields in zip(numbers, *columns):
            topic_id = unescape_field(fields[0])
            if topic_id in first_line:
                raise ValueError(
                    f"{pairs_path}: line {lineno}: duplicate topic {topic_id!r} "
                    f"(first on line {first_line[topic_id]})"
                )
            first_line[topic_id] = lineno
            try:
                source = Document(
                    fields[1], fields[2], unescape_field(fields[3]), documents[topic_id, "src"]
                )
                target = Document(
                    fields[4], fields[5], unescape_field(fields[6]), documents[topic_id, "tgt"]
                )
                pairs.append(DocumentPair(topic_id=topic_id, source=source, target=target))
            except ValueError as exc:
                raise ValueError(f"{pairs_path}: line {lineno}: {exc}") from None
    orphans = [
        (line_of[min(rows.values())], topic_id)
        for (topic_id, _), rows in sentences.items()
        if topic_id not in first_line
    ]
    if orphans:
        lineno, topic_id = min(orphans)
        raise ValueError(f"{sentences_path}: line {lineno}: topic {topic_id!r} has no pair row")
    return pairs


def _sentence_error(side: str, position: int | None, index: str, sentence: str) -> str | None:
    # The first check that one sentences.tsv row fails on its own, or None.
    if side not in ("src", "tgt"):
        return f"side must be 'src' or 'tgt', got {side!r}"
    if position is None or position < 0:
        return f"sentence index must be a non-negative integer, got {index!r}"
    if not sentence.strip():
        return "sentence is empty"
    return None
