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
from itertools import count, islice, repeat
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
        names = list(targets)
        ids_of = np.fromiter(map(sources.get, names, repeat(-1)), np.intp, len(names))
        counts = np.bincount(rows, minlength=len(sources))
        self._arrange(sources, names, ids_of, counts, cols[order], probs[order])

    def _arrange(
        self,
        sources: dict[str, int],
        names: list[str],
        ids_of: np.ndarray,
        counts: np.ndarray,
        cols: np.ndarray,
        probs: np.ndarray,
    ) -> None:
        # The entries in row order, counts[r] of them in row r: entry e
        # gives the target numbered cols[e], whose token is names[cols[e]],
        # with probs[e].  ids_of[k] is the row of token k if it is a source
        # and -1 if not; those take the next ids in order of first
        # appearance in the rows, written into ids_of.
        self._sources = len(sources)
        _, fresh = _number_by_first_touch(cols[ids_of[cols] < 0])
        ids = dict(sources)
        ids.update(zip([names[t] for t in fresh.tolist()], range(len(ids), len(ids) + len(fresh))))
        ids_of[fresh] = np.arange(self._sources, len(ids))
        indptr = np.zeros(len(ids) + 2, dtype=np.intp)
        np.cumsum(counts, out=indptr[1 : self._sources + 1])
        indptr[self._sources + 1 :] = indptr[self._sources]
        self._arrays = CompiledLexicon(ids, indptr, ids_of[cols], probs)
        self._names: list[str] | None = None
        keep = probs > 0.0
        if keep.all():
            self._compiled = self._arrays
        else:
            kept = np.concatenate([[0], np.cumsum(keep)])[indptr]
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

    def _entries(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
        # Each id's token, and each entry's source id, target id and
        # probability, in row order.
        _, indptr, targets, probs = self._arrays
        rows = np.repeat(np.arange(self._sources), np.diff(indptr[: self._sources + 1]))
        return self._tokens(), rows, targets, probs

    def items(self) -> Iterator[tuple[str, str, float]]:
        names, rows, targets, probs = self._entries()
        return zip(
            map(names.__getitem__, rows.tolist()),
            map(names.__getitem__, targets.tolist()),
            probs.tolist(),
        )

    def _with_rows(self, table: Mapping[str, Mapping[str, float]]) -> Lexicon:
        # A lexicon whose rows of the source tokens of ``table`` are
        # replaced by them; rows of new source tokens follow the others, in
        # the order of ``table``.  The entries are spliced, not sorted: each
        # row's span is gathered from this lexicon's entries or from the
        # table's, numbered by the ids (a token's number is its id) and then
        # by the tokens new to the lexicon, in the order of ``table``.
        ids, indptr, targets, probs = self._arrays
        old = self._sources
        sources = dict(islice(ids.items(), old))
        for s in table:
            sources.setdefault(s, len(sources))
        numbers = dict(ids)
        new_cols = [numbers.setdefault(t, len(numbers)) for row in table.values() for t in row]
        new_probs = [p for row in table.values() for p in row.values()]
        ids_of = np.full(len(numbers), -1, dtype=np.intp)
        ids_of[:old] = np.arange(old)
        added = [s for s in islice(sources, old, None) if s in numbers]
        ids_of[[numbers[s] for s in added]] = [sources[s] for s in added]

        starts = np.zeros(len(sources), dtype=np.intp)
        lengths = np.zeros(len(sources), dtype=np.intp)
        starts[:old] = indptr[:old]
        lengths[:old] = np.diff(indptr[: old + 1])
        rows = [sources[s] for s in table]
        lengths[rows] = [len(row) for row in table.values()]
        starts[rows] = len(targets) + np.cumsum(lengths[rows]) - lengths[rows]
        ends = np.cumsum(lengths)
        spans = np.arange(lengths.sum()) + np.repeat(starts - (ends - lengths), lengths)
        merged = Lexicon.__new__(Lexicon)
        merged._arrange(
            sources,
            list(numbers),
            ids_of,
            lengths,
            np.concatenate([targets, np.array(new_cols, dtype=np.intp)])[spans],
            np.concatenate([probs, np.array(new_probs, dtype=np.float64)])[spans],
        )
        return merged

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
    token position of the same pair) is one element of each of two flat
    integer arrays that the iterations keep, so memory grows with the
    sum of ``|source| * |target|`` over the training pairs.  The
    lexicon's arrays are built once those are gone.
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
    # position, then target position.  Each one's key, source id * number of
    # target ids + target id, is built in one array: the target position,
    # then its target id, then the source id's part added.
    width = np.repeat(target_lengths, source_lengths)  # per source occurrence
    cell_start = np.cumsum(width) - width
    first_target = np.repeat(np.cumsum(target_lengths) - target_lengths, source_lengths)
    keys = np.repeat(first_target - cell_start, width)
    keys += np.arange(len(keys))
    keys = np.array(target_ids)[keys]
    keys += np.repeat(np.array(source_ids) * len(target_types), width)
    pair_ids, pair_keys = _number_by_first_touch(keys)
    pair_source, pair_target = np.divmod(pair_keys, len(target_types))
    del keys, pair_keys
    # The pair ids that each target position adds to a denominator.  Source
    # occurrences are sorted by decreasing target length, so the ones long
    # enough to have position j are a prefix of that order.  These and
    # ``pair_ids`` are the only arrays kept per co-occurrence.
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
        share = prob[pair_ids]
        share /= np.repeat(denom, width)
        counts = np.bincount(pair_ids, weights=share)
        del share  # before the next iteration's
        totals = np.bincount(pair_source, weights=counts)
        prob = counts / totals[pair_source]

    if prune_threshold > 0.0:
        keep = prob >= prune_threshold
        pair_source, pair_target, prob = pair_source[keep], pair_target[keep], prob[keep]
    return source_types, target_types, pair_source, pair_target, prob


def _number_by_first_touch(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Id of each key, numbering distinct keys in order of first
    appearance, and the distinct keys in that order.

    One unstable sort groups equal keys, and a key's first appearance is
    the least position in its group (``np.minimum.reduceat``), so the
    numbering is exact for any keys."""
    order = np.argsort(keys)
    ordered = keys[order]
    heads = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    starts = np.flatnonzero(heads)
    distinct = ordered[starts]
    del ordered, heads
    by_first_touch = np.argsort(np.minimum.reduceat(order, starts))
    renumber = np.empty_like(by_first_touch)
    renumber[by_first_touch] = np.arange(len(by_first_touch))
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.repeat(renumber, np.diff(starts, append=len(keys)))
    return ids, distinct[by_first_touch]


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
    then by target token so output is reproducible.  The tokens are
    ranked by name once, the entries ordered by one ``np.lexsort`` of
    those ranks and the probabilities, and the lines written as one
    string.
    """
    names, rows, targets, probs = lexicon._entries()
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.lexsort((rank[targets], -probs, rank[rows]))
    lines = map(
        "{}\t{}\t{:.6f}\n".format,
        map(names.__getitem__, rows[order].tolist()),
        map(names.__getitem__, targets[order].tolist()),
        probs[order].tolist(),
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))


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
    ids, _ = _number_by_first_touch(keys)
    # Ids are given in order of first touch, so an entry repeats an earlier
    # one exactly when its id is not above every id before it.
    repeats = np.flatnonzero(ids[1:] <= np.maximum.accumulate(ids)[:-1])
    if not len(repeats):
        return
    entry = int(repeats[0]) + 1
    first = int(np.flatnonzero(ids == ids[entry])[0])
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
