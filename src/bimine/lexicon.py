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

import os
from collections import defaultdict
from itertools import count, islice
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import decimals, read_columns
from .text import tokenize

# Entries below this probability are dropped after the final iteration.
PRUNE_THRESHOLD = 1e-4


class CompiledLexicon(NamedTuple):
    """A lexicon as arrays, for scoring many sentence pairs at once.

    ``ids`` numbers every token of the lexicon, source and target alike,
    so equal strings on the two sides get equal ids: the source tokens
    first, in row order, then the tokens that are only targets, in order
    of first appearance among the rows' entries.  Row ``x`` of the CSR
    arrays, ``targets[indptr[x]:indptr[x + 1]]`` with ``probs`` at the
    same positions, holds the translations of token ``x`` with ``p > 0``.
    A token that is only ever a target has an empty row, and so has row
    ``len(ids)``, which stands for every token outside the lexicon.
    """

    ids: dict[str, int]
    indptr: np.ndarray
    targets: np.ndarray
    probs: np.ndarray


class Lexicon:
    """Immutable token translation table with per-source probabilities.

    A lexicon is built from its entries (``build_lexicon``,
    ``read_lexicon`` and the title merge) and held only as arrays: those
    of ``compiled()``, whose rows also keep their entries of probability
    0 when there are any, in their places.  ``translations`` and
    ``items`` read the rows back as strings.
    """

    def __init__(
        self,
        sources: dict[str, int],
        targets: dict[str, int],
        rows: np.ndarray,
        cols: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        # Entry e gives source rows[e] (numbered by ``sources``, in row
        # order) the target cols[e] (numbered by ``targets``) with
        # probs[e], each row's entries in the order given.  The ids are a
        # copy of ``sources``, which is left as it is.
        order = np.argsort(rows, kind="stable")
        rows, cols, probs = rows[order], cols[order], probs[order]
        # A target that is also a source takes the source's id; the others
        # take the next ids in order of first appearance in the rows.
        names = list(targets)
        ids_of = np.fromiter((sources.get(t, -1) for t in names), np.intp, len(names))
        fresh = list(dict.fromkeys(cols[ids_of[cols] < 0].tolist()))
        self._sources = len(sources)
        ids = dict(sources)
        ids.update(zip([names[t] for t in fresh], range(len(ids), len(ids) + len(fresh))))
        ids_of[fresh] = np.arange(self._sources, len(ids))
        indptr = np.zeros(len(ids) + 2, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=len(ids) + 1), out=indptr[1:])
        self._arrays = CompiledLexicon(ids, indptr, ids_of[cols], probs)
        self._names: list[str] | None = None
        keep = probs > 0.0
        if keep.all():
            self._compiled = self._arrays
        else:
            kept = np.zeros_like(indptr)
            np.cumsum(np.bincount(rows[keep], minlength=len(ids) + 1), out=kept[1:])
            self._compiled = CompiledLexicon(ids, kept, self._arrays.targets[keep], probs[keep])

    def compiled(self) -> CompiledLexicon:
        """The lexicon as arrays: its own, less any entries of
        probability 0.  Mining workers forked after it is built share
        them."""
        return self._compiled

    def _tokens(self) -> list[str]:
        # Each id's token, listed on first use.
        if self._names is None:
            self._names = list(self._arrays.ids)
        return self._names

    def translations(self, source_token: str) -> Mapping[str, float]:
        ids, indptr, targets, probs = self._arrays
        row = ids.get(source_token, self._sources)
        if row >= self._sources:
            return {}
        span = slice(indptr[row], indptr[row + 1])
        names = self._tokens()
        return dict(zip(map(names.__getitem__, targets[span].tolist()), probs[span].tolist()))

    def items(self) -> Iterator[tuple[str, str, float]]:
        _, indptr, targets, probs = self._arrays
        rows = np.repeat(np.arange(self._sources), np.diff(indptr[: self._sources + 1]))
        names = self._tokens()
        return zip(
            map(names.__getitem__, rows.tolist()),
            map(names.__getitem__, targets.tolist()),
            probs.tolist(),
        )

    def _with_rows(self, table: Mapping[str, Mapping[str, float]]) -> Lexicon:
        # A lexicon whose rows of the source tokens of ``table`` are
        # replaced by them; rows of new source tokens follow the others, in
        # the order of ``table``.  The other rows' entries are kept as
        # arrays, numbered by the ids (a token's target number is its id).
        ids, indptr, targets, probs = self._arrays
        sources = dict(islice(ids.items(), self._sources))
        for s in table:
            sources.setdefault(s, len(sources))
        tokens = dict(ids)
        rows = np.repeat(np.arange(self._sources), np.diff(indptr[: self._sources + 1]))
        kept = np.ones(len(sources), dtype=bool)
        kept[[sources[s] for s in table]] = False
        kept = kept[rows]
        new_rows = [sources[s] for s, row in table.items() for _ in row]
        new_cols = [tokens.setdefault(t, len(tokens)) for row in table.values() for t in row]
        new_probs = [p for row in table.values() for p in row.values()]
        return Lexicon(
            sources,
            tokens,
            np.concatenate([rows[kept], np.array(new_rows, dtype=np.intp)]),
            np.concatenate([targets[kept], np.array(new_cols, dtype=np.intp)]),
            np.concatenate([probs[kept], np.array(new_probs, dtype=np.float64)]),
        )

    def __len__(self) -> int:
        return len(self._arrays.probs)


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
    the training pairs.  The lexicon's arrays are built once those are
    gone.
    """
    if not parallel:
        raise ValueError("no training pairs")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    source_types, target_types, source, target, prob = _estimate(
        parallel, iterations, prune_threshold
    )
    # Rows in order of first appearance, each row's entries in first-touch
    # order; a source whose entries were all pruned has no row.
    kept = np.bincount(source, minlength=len(source_types)) > 0
    names = list(source_types)
    sources = {names[k]: row for row, k in enumerate(np.flatnonzero(kept).tolist())}
    rows = (np.cumsum(kept) - 1)[source]
    return Lexicon(sources, target_types, rows, target, prob)


def _estimate(
    parallel: Sequence[tuple[str, str]], iterations: int, prune_threshold: float
) -> tuple[dict[str, int], dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """The EM of ``build_lexicon``: the source and target token ids, and
    the (source id, target id, probability) of each kept entry, in order
    of first touch."""
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
    return source_types, target_types, pair_source, pair_target, prob


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
    is renormalized.  Multi-token titles are skipped and counted.  Only
    the touched rows are read, as dicts (``translations``), and spliced
    into the lexicon's arrays in place of their old entries.
    """
    rows: dict[str, dict[str, float]] = {}  # the touched rows, by first touch
    skipped = 0
    for source_title, target_title in titles:
        source_tokens = tokenize(source_title)
        target_tokens = tokenize(target_title)
        if len(source_tokens) != 1 or len(target_tokens) != 1:
            skipped += 1
            continue
        s, t = source_tokens[0], target_tokens[0]
        row = rows[s] if s in rows else lexicon.translations(s)
        row[t] = max(row.get(t, 0.0), 0.5)
        total = sum(row.values())
        rows[s] = {token: p / total for token, p in row.items()}
    return MergeResult(lexicon._with_rows(rows), skipped)


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
    probability outside [0, 1] or not written as a plain number
    (``corpus.decimal``) and a repeated (source, target) pair as
    ``path: line N: ...``; of these, the first in the file is the one
    reported.

    The file is read a chunk of lines at a time (``corpus.read_columns``)
    straight into the lexicon's arrays: a chunk's tokens are numbered and
    its probabilities parsed a column at a time.
    """
    # Each token's number, given on first sight: a source token's is its row.
    sources: defaultdict[str, int] = defaultdict(count().__next__)
    targets: defaultdict[str, int] = defaultdict(count().__next__)
    rows, cols = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    probs = [np.empty(0)]
    error = None
    try:
        for numbers, (source, target, prob_field) in read_columns(path, 3):
            prob = decimals(prob_field)
            bad = np.flatnonzero(~((prob >= 0.0) & (prob <= 1.0)))  # nan too
            end = int(bad[0]) if len(bad) else len(prob)
            rows.append(np.fromiter(map(sources.__getitem__, source[:end]), np.intp, end))
            cols.append(np.fromiter(map(targets.__getitem__, target[:end]), np.intp, end))
            probs.append(prob[:end])
            if end < len(prob):
                raise ValueError(
                    f"{path}: line {numbers[end]}: probability must lie in [0, 1], "
                    f"got {prob_field[end]!r}"
                )
    except ValueError as exc:
        error = exc
    row, col = np.concatenate(rows), np.concatenate(cols)
    # A repeated entry on an earlier line than the error is reported first.
    _reject_repeats(path, row * len(targets) + col)
    if error is not None:
        raise error
    return Lexicon(sources, targets, row, col, np.concatenate(probs))


def _reject_repeats(path: str | os.PathLike, keys: np.ndarray) -> None:
    """Raise ``path: line N: duplicate entry ...`` for the first entry
    whose key, one per (source, target) pair, repeats an earlier one's."""
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if not len(repeats):
        return
    entry = int(repeats.min())
    first = int(np.flatnonzero(keys == keys[entry])[0])
    # Only this message needs line numbers, so none are kept and the
    # file is read again, in the same chunks, up to the repeated entry.
    entries = (
        line
        for numbers, (sources, targets, _) in read_columns(path, 3)
        for line in zip(numbers, sources, targets)
    )
    lines = list(islice(entries, entry + 1))
    (lineno, source, target), first_lineno = lines[entry], lines[first][0]
    raise ValueError(
        f"{path}: line {lineno}: duplicate entry {source!r} -> {target!r} "
        f"(first on line {first_lineno})"
    ) from None
