"""Document store: ingestion, article pairing and corpus statistics.

All corpus data lives in flat tab-separated files so that runs are
reproducible and diffable.  A document file carries one article per
line (``id<TAB>title<TAB>text`` with tabs/newlines escaped), a link
table carries one ``source_title<TAB>target_title`` pair per line, and
a paired corpus directory holds the resolved article pairs plus their
segmented sentences.  Every reader of these files, and of the lexicon
and reference files, takes its rows from ``read_rows``, which holds the
rules they share: encoding, blank lines, width and error location.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .text import clean_markup, segment_sentences, tokenize


@dataclass(frozen=True)
class Document:
    """One article in one language, already cleaned and segmented."""

    id: str
    lang: str
    title: str
    sentences: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        # pairs.tsv stores id and lang unescaped, and ``escape_field``
        # has no escape for a carriage return.
        if any(c in self.id for c in "\t\n\r"):
            raise ValueError(f"document id {self.id!r} contains a tab or line break")
        if any(c in self.lang for c in "\t\n\r"):
            raise ValueError(f"document {self.id}: lang {self.lang!r} contains a tab or line break")
        if "\r" in self.title:
            raise ValueError(f"document {self.id}: title contains a carriage return")
        if not self.sentences:
            raise ValueError(f"document {self.id} has no sentences")
        for index, sentence in enumerate(self.sentences):
            if not sentence.strip():
                raise ValueError(f"document {self.id} contains an empty sentence")
            # sentences.tsv stores a sentence unescaped, one per line.
            if "\t" in sentence or "\n" in sentence or "\r" in sentence:
                raise ValueError(
                    f"document {self.id}: sentence {index} contains a tab or line break"
                )


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
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPE_MAP[m.group(1)], text)


def read_rows(path: str | os.PathLike, count: int) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each non-blank line of a
    tab-separated file.

    This is the one place of the file format shared by every reader: the
    file is UTF-8, a leading byte order mark is dropped, blank lines are
    skipped, and a line that is not ``count`` fields wide or not UTF-8
    is rejected as ``path: line N: ...``.
    """
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for lineno, line in enumerate(handle, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != count:
                    raise ValueError(
                        f"{path}: line {lineno}: expected {count} tab-separated fields, "
                        f"got {len(fields)}"
                    )
                yield lineno, fields
        except UnicodeDecodeError:
            raise ValueError(_not_utf8(path)) from None


def _not_utf8(path: str | os.PathLike) -> str:
    """The error for the first line of ``path`` that is not UTF-8.

    The text reader decodes ahead of the line it yields, so its error
    does not locate the line; the file is scanned again in binary, with
    the same line breaks, only when it fails.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle.read().splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return (
                    f"{path}: line {lineno}: not UTF-8 (byte {raw[exc.start]:#04x} "
                    f"at column {exc.start + 1}: {exc.reason})"
                )
    return f"{path}: changed while it was read"


def ingest_documents(path: str | os.PathLike, lang: str) -> list[Document]:
    """Read a document file, clean and segment every record.

    Raises ValueError naming the offending line on malformed input,
    duplicate ids, or records that clean down to no sentences.
    """
    documents: list[Document] = []
    first_line: dict[str, int] = {}  # document id -> line it first appears on
    for lineno, (doc_id, title, raw) in read_rows(path, 3):
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
    return [(source, target) for _, (source, target) in read_rows(path, 2)]


def read_parallel(path: str | os.PathLike) -> list[tuple[str, str]]:
    """Read a training corpus of ``source<TAB>target`` sentence pairs."""
    # Not a call of ``read_links``: ``perfbench/tracing.py`` counts the
    # bytes each of the two reads, and would count a nested call twice.
    return [(source, target) for _, (source, target) in read_rows(path, 2)]


def write_bitext(path: str | os.PathLike, rows: Iterable[tuple[float, str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for score, source_sentence, target_sentence in rows:
            handle.write(f"{float(score):.4f}\t{source_sentence}\t{target_sentence}\n")


def read_bitext(path: str | os.PathLike) -> list[tuple[float, str, str]]:
    rows = []
    for lineno, (score_field, source_sentence, target_sentence) in read_rows(path, 3):
        try:
            score = float(score_field)
        except ValueError:
            score = math.nan
        if not math.isfinite(score):
            raise ValueError(
                f"{path}: line {lineno}: score must be a finite number, got {score_field!r}"
            )
        rows.append((score, source_sentence, target_sentence))
    return rows


_PAIRS_FILE = "pairs.tsv"
_SENTENCES_FILE = "sentences.tsv"


def save_corpus(pairs: Sequence[DocumentPair], out_dir: str | os.PathLike) -> None:
    """Write a paired corpus directory (pairs.tsv + sentences.tsv)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, _PAIRS_FILE), "w", encoding="utf-8") as handle:
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
    with open(os.path.join(out_dir, _SENTENCES_FILE), "w", encoding="utf-8") as handle:
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
    """
    pairs_path = os.path.join(corpus_dir, _PAIRS_FILE)
    sentences_path = os.path.join(corpus_dir, _SENTENCES_FILE)
    # (topic, side) -> sentence index -> (line number, sentence)
    sentences: dict[tuple[str, str], dict[int, tuple[int, str]]] = {}
    for lineno, (topic_id, side, index, sentence) in read_rows(sentences_path, 4):
        if side not in ("src", "tgt"):
            raise ValueError(
                f"{sentences_path}: line {lineno}: side must be 'src' or 'tgt', got {side!r}"
            )
        try:
            position = int(index)
        except ValueError:
            position = -1
        if position < 0:
            raise ValueError(
                f"{sentences_path}: line {lineno}: sentence index must be a "
                f"non-negative integer, got {index!r}"
            )
        if not sentence.strip():
            raise ValueError(f"{sentences_path}: line {lineno}: sentence is empty")
        rows = sentences.setdefault((unescape_field(topic_id), side), {})
        if position in rows:
            raise ValueError(
                f"{sentences_path}: line {lineno}: duplicate sentence index {position} "
                f"(first on line {rows[position][0]})"
            )
        rows[position] = (lineno, sentence)
    for (topic_id, side), rows in sentences.items():
        for expected, position in enumerate(sorted(rows)):
            if position != expected:
                raise ValueError(
                    f"{sentences_path}: line {rows[position][0]}: sentence index {position} "
                    f"of {topic_id!r} {side} leaves index {expected} missing"
                )

    def doc_sentences(topic_id: str, side: str) -> tuple[str, ...]:
        rows = sentences.get((topic_id, side), {})
        return tuple(rows[position][1] for position in range(len(rows)))

    pairs: list[DocumentPair] = []
    first_line: dict[str, int] = {}  # topic -> the pair row it first appears on
    for lineno, fields in read_rows(pairs_path, 7):
        topic_id = unescape_field(fields[0])
        if topic_id in first_line:
            raise ValueError(
                f"{pairs_path}: line {lineno}: duplicate topic {topic_id!r} "
                f"(first on line {first_line[topic_id]})"
            )
        first_line[topic_id] = lineno
        try:
            source = Document(
                id=fields[1],
                lang=fields[2],
                title=unescape_field(fields[3]),
                sentences=doc_sentences(topic_id, "src"),
            )
            target = Document(
                id=fields[4],
                lang=fields[5],
                title=unescape_field(fields[6]),
                sentences=doc_sentences(topic_id, "tgt"),
            )
            pairs.append(DocumentPair(topic_id=topic_id, source=source, target=target))
        except ValueError as exc:
            raise ValueError(f"{pairs_path}: line {lineno}: {exc}") from None
    orphans = [
        (min(lineno for lineno, _ in rows.values()), topic_id)
        for (topic_id, _), rows in sentences.items()
        if topic_id not in first_line
    ]
    if orphans:
        lineno, topic_id = min(orphans)
        raise ValueError(f"{sentences_path}: line {lineno}: topic {topic_id!r} has no pair row")
    return pairs
