"""Bilingual translation lexicon estimated from parallel sentences.

Translation probabilities are fit by expectation-maximization over
co-occurring token pairs: every source token in a sentence pair is
assumed to translate to exactly one token of the paired sentence, the
alignment being latent.  Probabilities are normalized per source token,
so ``sum_t p(t | s) == 1`` for every source token seen in training.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .text import tokenize

# Entries below this probability are dropped after the final iteration.
PRUNE_THRESHOLD = 1e-4


class Lexicon:
    """Immutable token translation table with per-source probabilities."""

    def __init__(self, table: Mapping[str, Mapping[str, float]]):
        self._table = {s: dict(row) for s, row in table.items()}

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

    def transposed(self) -> "Lexicon":
        """Lexicon with source and target roles swapped (rows renormalized)."""
        flipped: dict[str, dict[str, float]] = defaultdict(dict)
        for s, t, p in self.items():
            flipped[t][s] = p
        for t, row in flipped.items():
            total = sum(row.values())
            flipped[t] = {s: p / total for s, p in row.items()}
        return Lexicon(flipped)

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
    """
    if not parallel:
        raise ValueError("no training pairs")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    tokenized: list[tuple[list[str], list[str]]] = []
    for source_sentence, target_sentence in parallel:
        source_tokens = tokenize(source_sentence)
        target_tokens = tokenize(target_sentence)
        if source_tokens and target_tokens:
            tokenized.append((source_tokens, target_tokens))
    if not tokenized:
        raise ValueError("no training pairs")

    support: dict[str, set[str]] = defaultdict(set)
    for source_tokens, target_tokens in tokenized:
        for s in source_tokens:
            support[s].update(target_tokens)

    prob: dict[str, dict[str, float]] = {
        s: {t: 1.0 / len(targets) for t in targets} for s, targets in support.items()
    }

    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {s: defaultdict(float) for s in prob}
        for source_tokens, target_tokens in tokenized:
            for s in source_tokens:
                row = prob[s]
                denom = 0.0
                for t in target_tokens:
                    denom += row[t]
                if denom <= 0.0:
                    continue
                for t in target_tokens:
                    counts[s][t] += row[t] / denom
        for s, row_counts in counts.items():
            total = sum(row_counts.values())
            if total > 0.0:
                prob[s] = {t: c / total for t, c in row_counts.items()}

    if prune_threshold > 0.0:
        prob = {
            s: {t: p for t, p in row.items() if p >= prune_threshold}
            for s, row in prob.items()
        }
        prob = {s: row for s, row in prob.items() if row}
    return Lexicon(prob)


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
    table: dict[str, dict[str, float]] = defaultdict(dict)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
                )
            try:
                prob = float(fields[2])
            except ValueError:
                prob = math.nan
            if not 0.0 <= prob <= 1.0:  # also rejects nan
                raise ValueError(
                    f"{path}: line {lineno}: probability must lie in [0, 1], got {fields[2]!r}"
                )
            table[fields[0]][fields[1]] = prob
    return Lexicon(table)
