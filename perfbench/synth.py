"""Seeded synthetic comparable corpus in the bimine command-line formats.

Two invented languages, the same for every seed, share one Zipfian
word inventory of a few thousand types.  Every source
word has one to three target translations, and target words are shared
between source words, so the translation relation is many-to-many.
Each document pair belongs to a topic.  Its non-parallel sentences are
drawn from the same topic distribution as its planted translations, so
the two kinds cannot be told apart by vocabulary alone.  Planted
parallel sentences sit at known, monotone indices; they are the ground
truth for precision, recall and the tuning reference.

Document sizes come from a fixed ladder that the seed only permutes, so
the number of sentence-pair cells, and with it the work of a run, does
not depend on the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

LANGUAGE_SEED = 20151205
VOCAB_SIZE = 3000
ZIPF_EXPONENT = 1.1
TOPIC_WORDS = 30
TOPIC_SHARE = 0.3
SENTENCE_TOKENS = (6, 16)
NUMBER_RATE = 0.1
DROP_RATE = 0.03
SWAP_RATE = 0.15

_TOPIC_BANDS = np.geomspace(50, VOCAB_SIZE, TOPIC_WORDS + 1).astype(int)

_SOURCE_CONSONANTS = "bdgklmnprstvz"
_SOURCE_VOWELS = "aeiou"
_TARGET_CONSONANTS = "cfhjwxqy"
_TARGET_VOWELS = "aeiouy"

_INLINE_TAGS = (("<b>", "</b>"), ("<i>", "</i>"), ('<a href="wiki">', "</a>"))
_BLOCK_NOISE = (
    "<ref>Cited in Vol. 3, p. 12 &amp; ibid.</ref>",
    "<table><tr><td>1</td><td>2</td></tr></table>",
    "<figure>Map. Source: survey.</figure>",
    "\n",
)


@dataclass(frozen=True)
class DocPair:
    topic_id: str
    source_title: str
    target_title: str
    source: tuple[str, ...]
    target: tuple[str, ...]
    planted: tuple[tuple[int, int], ...]  # (source index, target index), monotone


@dataclass(frozen=True)
class Corpus:
    pairs: tuple[DocPair, ...]
    training: tuple[tuple[str, str], ...]

    def truth(self) -> list[tuple[str, str]]:
        """Planted (source sentence, target sentence) pairs of every document pair."""
        return [
            (pair.source[i], pair.target[j]) for pair in self.pairs for i, j in pair.planted
        ]

    def cells(self) -> int:
        return sum(len(p.source) * len(p.target) for p in self.pairs)


def _words(rng: np.random.Generator, consonants: str, vowels: str, count: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            consonants[int(rng.integers(len(consonants)))] + vowels[int(rng.integers(len(vowels)))]
            for _ in range(syllables)
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class Generator:
    """Draws sentences, translations and document pairs from ``seed``."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        rng = np.random.default_rng(LANGUAGE_SEED)
        self.source_words = _words(rng, _SOURCE_CONSONANTS, _SOURCE_VOWELS, VOCAB_SIZE)
        self.target_words = _words(rng, _TARGET_CONSONANTS, _TARGET_VOWELS, VOCAB_SIZE)
        weights = 1.0 / np.arange(1, VOCAB_SIZE + 1) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())
        # Rank r translates mostly to target rank r; synonyms come from
        # nearby ranks, so other source words share those targets.
        self.translations: list[tuple[np.ndarray, np.ndarray]] = []
        for r in range(VOCAB_SIZE):
            options = [r]
            for _ in range(int(rng.random() < 0.4) + int(rng.random() < 0.15)):
                options.append(int(np.clip(r + rng.integers(-50, 51), 0, VOCAB_SIZE - 1)))
            probs = np.array([0.7] + [0.3] * (len(options) - 1))
            self.translations.append((np.array(options), np.cumsum(probs / probs.sum())))

    def topic(self) -> np.ndarray:
        # One word from each of TOPIC_WORDS log-spaced frequency bands,
        # so every topic has the same frequency profile.
        return self.rng.integers(_TOPIC_BANDS[:-1], _TOPIC_BANDS[1:])

    def sentence(self, topic: np.ndarray) -> list[int | str]:
        """Token ids (and number strings) of one source-language sentence."""
        rng = self.rng
        length = int(rng.integers(SENTENCE_TOKENS[0], SENTENCE_TOKENS[1] + 1))
        ids = np.searchsorted(self.cdf, rng.random(length))
        from_topic = rng.random(length) < TOPIC_SHARE
        ids[from_topic] = rng.choice(topic, size=int(from_topic.sum()))
        tokens: list[int | str] = [int(min(i, VOCAB_SIZE - 1)) for i in ids]
        if rng.random() < NUMBER_RATE:
            tokens.insert(int(rng.integers(1, length)), str(int(rng.integers(1000, 2100))))
        return tokens

    def translate(self, tokens: list[int | str]) -> list[int | str]:
        """Target-side token ids: synonym choice, drops and local swaps."""
        rng = self.rng
        out: list[int | str] = []
        for k, token in enumerate(tokens):
            if isinstance(token, str):
                out.append(token)
            elif k == 0 or rng.random() >= DROP_RATE:  # the first word is kept
                options, cdf = self.translations[token]
                out.append(int(options[int(np.searchsorted(cdf, rng.random()))]))
        for k in range(len(out) - 1):
            if rng.random() < SWAP_RATE:
                out[k], out[k + 1] = out[k + 1], out[k]
        return out

    def text(self, tokens: list[int | str], words: list[str]) -> str:
        body = " ".join(t if isinstance(t, str) else words[t] for t in tokens)
        return body[0].upper() + body[1:] + "."

    def parallel_pair(self, topic: np.ndarray) -> tuple[str, str]:
        source = self.sentence(topic)
        return self.text(source, self.source_words), self.text(self.translate(source), self.target_words)

    def monolingual(self, topic: np.ndarray, side: str) -> str:
        # A target-side sentence is the translation of a fresh source
        # sentence: natural target text on the topic, parallel to nothing.
        tokens = self.sentence(topic)
        if side == "src":
            return self.text(tokens, self.source_words)
        return self.text(self.translate(tokens), self.target_words)

    def doc_pair(self, index: int, n: int, m: int, planted_share: float) -> DocPair:
        rng = self.rng
        topic = self.topic()
        k = max(1, round(planted_share * min(n, m)))
        source_at = np.sort(rng.choice(n, size=k, replace=False))
        target_at = np.sort(rng.choice(m, size=k, replace=False))
        source = [""] * n
        target = [""] * m
        for i, j in zip(source_at, target_at):
            source[i], target[j] = self.parallel_pair(topic)
        planted_source = set(int(i) for i in source_at)
        planted_target = set(int(j) for j in target_at)
        for i in range(n):
            if i not in planted_source:
                source[i] = self.monolingual(topic, "src")
        for j in range(m):
            if j not in planted_target:
                target[j] = self.monolingual(topic, "tgt")
        return DocPair(
            topic_id=f"Temo{index:05d}",
            source_title=f"Temo{index:05d}",
            target_title=f"Topic{index:05d}",
            source=tuple(source),
            target=tuple(target),
            planted=tuple((int(i), int(j)) for i, j in zip(source_at, target_at)),
        )


def size_ladder(count: int, low: int, high: int, ratio: float) -> list[tuple[int, int]]:
    """``count`` (source, target) sizes spread over [low, high].

    Every other pair swaps which side is longer, and the seed only
    permutes the list, so the total of source x target cells is fixed.
    """
    sizes = np.linspace(low, high, count).round().astype(int)
    pairs = []
    for k, s in enumerate(sizes):
        longer = max(int(round(s * ratio)), int(s))
        pairs.append((int(s), longer) if k % 2 == 0 else (longer, int(s)))
    return pairs


def make_corpus(
    seed: int,
    pairs: int,
    sizes: tuple[int, int],
    ratio: float,
    planted_share: float,
    training_pairs: int,
) -> Corpus:
    gen = Generator(seed)
    ladder = size_ladder(pairs, sizes[0], sizes[1], ratio)
    order = gen.rng.permutation(len(ladder))
    doc_pairs = tuple(
        gen.doc_pair(index, *ladder[int(k)], planted_share) for index, k in enumerate(order)
    )
    training = tuple(gen.parallel_pair(gen.topic()) for _ in range(training_pairs))
    return Corpus(pairs=doc_pairs, training=training)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _with_markup(rng: np.random.Generator, sentences: tuple[str, ...]) -> str:
    """Raw article text whose markup cleans back to ``sentences``.

    Inline tags wrap a word that is not the last of its sentence, so no
    tag stands between a word and its final period; block noise goes
    between sentences.
    """
    parts = []
    for sentence in sentences:
        words = sentence.split(" ")
        if len(words) > 1 and rng.random() < 0.3:
            k = int(rng.integers(len(words) - 1))
            open_tag, close_tag = _INLINE_TAGS[int(rng.integers(len(_INLINE_TAGS)))]
            words[k] = open_tag + words[k] + close_tag
        parts.append(" ".join(words))
        if rng.random() < 0.15:
            parts.append(_BLOCK_NOISE[int(rng.integers(len(_BLOCK_NOISE)))])
    return " ".join(parts)


def write_inputs(corpus: Corpus, out_dir: str, seed: int) -> dict[str, str]:
    """Write the document, link, title, training and reference files.

    Returns the path of each file by role.  A few documents without a
    link and a few links without documents exercise the pairing rules.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        role: os.path.join(out_dir, name)
        for role, name in (
            ("source_docs", "source_docs.tsv"),
            ("target_docs", "target_docs.tsv"),
            ("links", "links.tsv"),
            ("titles", "titles.tsv"),
            ("parallel", "parallel.tsv"),
            ("reference", "reference.tsv"),
        )
    }
    with open(paths["source_docs"], "w", encoding="utf-8") as src, open(
        paths["target_docs"], "w", encoding="utf-8"
    ) as tgt:
        for k, pair in enumerate(corpus.pairs):
            src.write(f"s{k}\t{pair.source_title}\t{_escape(_with_markup(rng, pair.source))}\n")
            tgt.write(f"t{k}\t{pair.target_title}\t{_escape(_with_markup(rng, pair.target))}\n")
        src.write("s-orphan\tUnlinked\tA document nobody links to.\n")
    links = [f"{p.source_title}\t{p.target_title}\n" for p in corpus.pairs]
    with open(paths["links"], "w", encoding="utf-8") as handle:
        handle.writelines(links)
        handle.write("Missing\tNowhere\n")
    with open(paths["titles"], "w", encoding="utf-8") as handle:
        handle.writelines(links)
    with open(paths["parallel"], "w", encoding="utf-8") as handle:
        handle.writelines(f"{s}\t{t}\n" for s, t in corpus.training)
    with open(paths["reference"], "w", encoding="utf-8") as handle:
        for pair in corpus.pairs:
            handle.writelines(f"{pair.topic_id}\t{i}\t{j}\n" for i, j in pair.planted)
    return paths
