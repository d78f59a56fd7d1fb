"""Bilingual translation lexicon estimated from parallel sentences.

Translation probabilities are fit by expectation-maximization over
co-occurring token pairs: every source token in a sentence pair is
assumed to translate to exactly one token of the paired sentence, the
alignment being latent.  Probabilities are normalized per source token,
so ``sum_t p(t | s) == 1`` for every source token seen in training.

The EM runs on arrays.  Tokens are interned to integer ids per side as
they are tokenized, each co-occurring (source, target) type pair gets an
id in order of first touch (by sentence, source position, then target
position), and each iteration is a few numpy passes over all
co-occurrences.  Every sum adds its terms in the order of the plain
nested loop over sentences and tokens (``tests/oracles.py``), so the
lexicon is bit-identical to that loop's, rows and entries in
first-touch order included; ``merge_title_lexicon`` renormalizes rows
in that order.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import read_rows
from .text import tokenize

# Entries below this probability are dropped after the final iteration.
PRUNE_THRESHOLD = 1e-4


class CompiledLexicon(NamedTuple):
    """A lexicon as arrays, for scoring many sentence pairs at once.

    ``ids`` numbers every token of the lexicon, source and target alike,
    so equal strings on the two sides get equal ids.  Row ``x`` of the
    CSR arrays, ``targets[indptr[x]:indptr[x + 1]]`` with ``probs`` at
    the same positions, holds the translations of token ``x`` with
    ``p > 0``.  A token that is only ever a target has an empty row, and
    so has row ``len(ids)``, which stands for every token outside the
    lexicon.
    """

    ids: dict[str, int]
    indptr: np.ndarray
    targets: np.ndarray
    probs: np.ndarray


class Lexicon:
    """Immutable token translation table with per-source probabilities."""

    def __init__(self, table: Mapping[str, Mapping[str, float]]):
        self._table = {s: dict(row) for s, row in table.items()}
        self._compiled: CompiledLexicon | None = None

    def compiled(self) -> CompiledLexicon:
        """The lexicon as arrays, built on first use and kept: the table
        never changes, and mining workers forked after the first call
        share it."""
        if self._compiled is None:
            table = self._table
            # Source tokens take the first ids, in row order.
            tokens = chain(table, chain.from_iterable(table.values()))
            ids = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
            rows = np.repeat(np.arange(len(table)), [len(row) for row in table.values()])
            targets = np.array([ids[t] for row in table.values() for t in row], dtype=np.intp)
            probs = np.array([p for row in table.values() for p in row.values()], dtype=np.float64)
            keep = probs > 0.0
            indptr = np.zeros(len(ids) + 2, dtype=np.intp)
            np.cumsum(np.bincount(rows[keep], minlength=len(ids) + 1), out=indptr[1:])
            self._compiled = CompiledLexicon(ids, indptr, targets[keep], probs[keep])
        return self._compiled

    def prob(self, source_token: str, target_token: str) -> float:
        row = self._table.get(source_token)
        if row is None:
            return 0.0
        return row.get(target_token, 0.0)

    def translations(self, source_token: str) -> Mapping[str, float]:
        return self._table.get(source_token, {})

    def source_tokens(self) -> Iterator[str]:
        return iter(self._table)

    def items(self) -> Iterator[tuple[str, str, float]]:
        for s, row in self._table.items():
            for t, p in row.items():
                yield s, t, p

    def __len__(self) -> int:
        return sum(len(row) for row in self._table.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lexicon) and self._table == other._table


def build_lexicon(
    parallel: Sequence[tuple[str, str]],
    iterations: int,
    prune_threshold: float = PRUNE_THRESHOLD,
) -> Lexicon:
    """Estimate translation probabilities from sentence pairs by EM.

    Starts from a uniform distribution over each source token's
    co-occurring target tokens and runs ``iterations`` EM rounds.  After
    the final per-source normalization, entries below
    ``prune_threshold`` are dropped (the surviving row is not rescaled).

    Every co-occurrence (one source token position against one target
    token position of the same pair) is one element of a few flat
    arrays, so memory grows with the sum of ``|source| * |target|`` over
    the training pairs.
    """
    if not parallel:
        raise ValueError("no training pairs")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    source_types: dict[str, int] = {}
    target_types: dict[str, int] = {}
    source_ids: list[int] = []
    target_ids: list[int] = []
    source_lengths: list[int] = []
    target_lengths: list[int] = []
    for source_sentence, target_sentence in parallel:
        source_tokens = tokenize(source_sentence)
        target_tokens = tokenize(target_sentence)
        if source_tokens and target_tokens:
            source_ids.extend([source_types.setdefault(s, len(source_types)) for s in source_tokens])
            target_ids.extend([target_types.setdefault(t, len(target_types)) for t in target_tokens])
            source_lengths.append(len(source_tokens))
            target_lengths.append(len(target_tokens))
    if not source_lengths:
        raise ValueError("no training pairs")

    # Co-occurrences (one source position against one target position of
    # the same pair) in the order EM visits them: by sentence, source
    # position, then target position.
    width = np.repeat(target_lengths, source_lengths)  # per source occurrence
    first_target = np.repeat(np.cumsum(target_lengths) - target_lengths, source_lengths)
    cell_start = np.cumsum(width) - width
    occurrence = np.repeat(np.arange(len(width)), width)
    target_index = np.arange(len(occurrence)) + (first_target - cell_start)[occurrence]
    source_of_cell = np.array(source_ids)[occurrence]
    target_of_cell = np.array(target_ids)[target_index]
    pair_ids, pair_keys = _number_by_first_touch(source_of_cell * len(target_types) + target_of_cell)
    pair_source, pair_target = np.divmod(pair_keys, len(target_types))
    # The pair ids that each target position adds to a denominator.  Source
    # occurrences are sorted by decreasing target length, so the ones long
    # enough to have position j are a prefix of that order.
    column_order = np.argsort(-width, kind="stable")
    reach = len(width) - np.cumsum(np.bincount(width))  # occurrences longer than j
    columns = [pair_ids[cell_start[column_order[:n]] + j] for j, n in enumerate(reach[:-1])]

    prob = 1.0 / np.bincount(pair_source)[pair_source]
    for _ in range(iterations):
        ordered = prob[columns[0]]
        for column in columns[1:]:
            ordered[: len(column)] += prob[column]
        denom = np.empty_like(ordered)
        denom[column_order] = ordered
        # No guard against zero: every probability starts positive, and each
        # occurrence hands its unit of mass to its own sentence's targets.
        counts = np.bincount(pair_ids, weights=prob[pair_ids] / denom[occurrence])
        totals = np.bincount(pair_source, weights=counts)
        prob = counts / totals[pair_source]

    if prune_threshold > 0.0:
        keep = prob >= prune_threshold
        pair_source, pair_target, prob = pair_source[keep], pair_target[keep], prob[keep]
    source_names = list(source_types)
    target_names = list(target_types)
    # Rows in order of first appearance, each row's entries in first-touch order.
    table: dict[str, dict[str, float]] = {}
    rows = np.argsort(pair_source, kind="stable")
    for s, t, p in zip(pair_source[rows].tolist(), pair_target[rows].tolist(), prob[rows].tolist()):
        table.setdefault(source_names[s], {})[target_names[t]] = p
    return Lexicon(table)


def _number_by_first_touch(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Id of each key, numbering distinct keys in order of first
    appearance, and the distinct keys in that order."""
    unique_keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_first_touch = np.argsort(first)
    renumber = np.empty_like(by_first_touch)
    renumber[by_first_touch] = np.arange(len(by_first_touch))
    return renumber[inverse], unique_keys[by_first_touch]


class MergeResult(NamedTuple):
    lexicon: Lexicon
    skipped: int


def merge_title_lexicon(lexicon: Lexicon, titles: Iterable[tuple[str, str]]) -> MergeResult:
    """Fold single-token title pairs into the lexicon.

    A title pair whose two sides each tokenize to exactly one token is
    inserted with probability ``max(existing, 0.5)`` and the source row
    is renormalized.  Multi-token titles are skipped and counted.
    """
    table: dict[str, dict[str, float]] = {
        s: dict(lexicon.translations(s)) for s in lexicon.source_tokens()
    }
    skipped = 0
    for source_title, target_title in titles:
        source_tokens = tokenize(source_title)
        target_tokens = tokenize(target_title)
        if len(source_tokens) != 1 or len(target_tokens) != 1:
            skipped += 1
            continue
        s, t = source_tokens[0], target_tokens[0]
        row = table.setdefault(s, {})
        row[t] = max(row.get(t, 0.0), 0.5)
        total = sum(row.values())
        table[s] = {token: p / total for token, p in row.items()}
    return MergeResult(Lexicon(table), skipped)


def write_lexicon(lexicon: Lexicon, path: str | os.PathLike) -> None:
    """Write ``source<TAB>target<TAB>probability`` lines.

    Rows are sorted by source token, then by descending probability,
    then by target token so output is reproducible.
    """
    entries = sorted(lexicon.items(), key=lambda e: (e[0], -e[2], e[1]))
    with open(path, "w", encoding="utf-8") as handle:
        for s, t, p in entries:
            handle.write(f"{s}\t{t}\t{p:.6f}\n")


def read_lexicon(path: str | os.PathLike) -> Lexicon:
    """Read ``write_lexicon``'s format, rejecting a malformed line, a
    probability outside [0, 1] and a repeated (source, target) pair as
    ``path: line N: ...``."""
    table: dict[str, dict[str, float]] = defaultdict(dict)
    for lineno, (source, target, prob_field) in read_rows(path, 3):
        try:
            prob = float(prob_field)
        except ValueError:
            prob = math.nan
        if not 0.0 <= prob <= 1.0:  # also rejects nan
            raise ValueError(
                f"{path}: line {lineno}: probability must lie in [0, 1], got {prob_field!r}"
            )
        row = table[source]
        if target in row:
            # Only this message needs a line number, so none is kept and
            # the file is read again up to the entry's first line.
            rows = read_rows(path, 3)
            first = next((n for n, entry in rows if entry[:2] == [source, target]), lineno)
            raise ValueError(
                f"{path}: line {lineno}: duplicate entry {source!r} -> {target!r} "
                f"(first on line {first})"
            )
        row[target] = prob
    return Lexicon(table)
