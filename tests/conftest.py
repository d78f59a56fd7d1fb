"""Shared synthetic fixtures: a one-to-one vocabulary, its lexicon and
a trained similarity model, plus document-pair builders for mining and
a loader of the benchmark's corpus generator."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bimine.classifier import (
    make_negative_pairs,
    tokenizable_pairs,
    train_classifier,
    training_features,
)
from bimine.corpus import Document, DocumentPair
from bimine.lexicon import build_lexicon

SOURCE_VOCAB = (
    "domo", "kato", "hundo", "libro", "akvo", "suno", "arbo",
    "vojo", "urbo", "tago", "nokto", "pano", "mano", "floro",
)
TARGET_VOCAB = (
    "house", "cat", "dog", "book", "water", "sun", "tree",
    "road", "city", "day", "night", "bread", "hand", "flower",
)
NOISE_VOCAB = ("zork", "blip", "quux", "fnord", "grem", "vexil", "plonk")

SYNTH = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"


def load_synth():
    """The benchmark's corpus generator, ``perfbench/synth.py``."""
    spec = importlib.util.spec_from_file_location("bimine_test_synth", SYNTH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def make_parallel_sentences(rng: np.random.Generator, count: int) -> list[tuple[str, str]]:
    """Word-for-word translated sentence pairs over the toy vocabulary."""
    pairs = []
    for _ in range(count):
        length = int(rng.integers(3, 9))
        indices = rng.integers(0, len(SOURCE_VOCAB), size=length)
        pairs.append(
            (
                " ".join(SOURCE_VOCAB[i] for i in indices),
                " ".join(TARGET_VOCAB[i] for i in indices),
            )
        )
    return pairs


def make_noise_sentence(rng: np.random.Generator) -> str:
    length = int(rng.integers(3, 7))
    return " ".join(NOISE_VOCAB[i] for i in rng.integers(0, len(NOISE_VOCAB), size=length))


def make_mining_pair(
    rng: np.random.Generator,
    topic_id: str,
    true_pairs: int = 6,
    target_noise: int = 2,
) -> tuple[DocumentPair, list[tuple[int, int]]]:
    """A document pair with known parallel sentences.

    The target document interleaves translated sentences with noise
    sentences; the returned reference lists the (source_index,
    target_index) positions of the true translations.
    """
    parallel = make_parallel_sentences(rng, true_pairs)
    source_sentences = [src for src, _ in parallel]
    target_sentences: list[str] = []
    reference: list[tuple[int, int]] = []
    noise_slots = set(
        int(s) for s in rng.choice(true_pairs + target_noise, size=target_noise, replace=False)
    )
    next_pair = 0
    for slot in range(true_pairs + target_noise):
        if slot in noise_slots:
            target_sentences.append(make_noise_sentence(rng))
        else:
            target_sentences.append(parallel[next_pair][1])
            reference.append((next_pair, slot))
            next_pair += 1
    source = Document(
        id=f"{topic_id}-src", lang="eo", title=topic_id, sentences=tuple(source_sentences)
    )
    target = Document(
        id=f"{topic_id}-tgt", lang="en", title=topic_id, sentences=tuple(target_sentences)
    )
    return DocumentPair(topic_id=topic_id, source=source, target=target), reference


def sentence_text(words) -> str:
    return " ".join(words).capitalize() + "."


def build_corpus_files(root, rng: np.random.Generator, doc_pairs: int = 4, sentences_per_doc: int = 5) -> None:
    """Write document, link and training files for the toy vocabulary."""
    source_lines = []
    target_lines = []
    links = []
    for d in range(doc_pairs):
        source_sentences = []
        target_sentences = []
        for _ in range(sentences_per_doc):
            idx = rng.integers(0, len(SOURCE_VOCAB), size=int(rng.integers(3, 7)))
            source_sentences.append(sentence_text([SOURCE_VOCAB[i] for i in idx]))
            target_sentences.append(sentence_text([TARGET_VOCAB[i] for i in idx]))
        noise_idx = rng.integers(0, len(NOISE_VOCAB), size=3)
        target_sentences.append(sentence_text([NOISE_VOCAB[i] for i in noise_idx]))
        source_lines.append(f"src{d}\tTopic {d}\t" + " ".join(source_sentences))
        target_lines.append(f"tgt{d}\tTema {d}\t" + " ".join(target_sentences))
        links.append(f"Topic {d}\tTema {d}")

    (root / "source_docs.tsv").write_text("\n".join(source_lines) + "\n", encoding="utf-8")
    (root / "target_docs.tsv").write_text("\n".join(target_lines) + "\n", encoding="utf-8")
    (root / "links.tsv").write_text("\n".join(links) + "\n", encoding="utf-8")

    parallel = []
    for _ in range(50):
        idx = rng.integers(0, len(SOURCE_VOCAB), size=int(rng.integers(3, 8)))
        parallel.append(
            " ".join(SOURCE_VOCAB[i] for i in idx)
            + "\t"
            + " ".join(TARGET_VOCAB[i] for i in idx)
        )
    (root / "parallel.tsv").write_text("\n".join(parallel) + "\n", encoding="utf-8")


def training_set(positives, negatives, lexicon) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of the positives then the negatives, and their +-1
    labels, built as ``bimine train`` builds them."""
    examples = positives + negatives
    _, distinct, encoded = tokenizable_pairs(examples, lexicon)
    x = training_features(examples, lexicon, distinct, encoded)
    return x, np.repeat([1.0, -1.0], [len(positives), len(negatives)])


@pytest.fixture(scope="session")
def toy_corpus() -> list[tuple[str, str]]:
    return make_parallel_sentences(np.random.default_rng(1234), 60)


@pytest.fixture(scope="session")
def toy_lexicon(toy_corpus):
    return build_lexicon(toy_corpus, 10)


@pytest.fixture(scope="session")
def toy_model(toy_lexicon):
    rng = np.random.default_rng(4321)
    positives = make_parallel_sentences(rng, 80)
    negatives = make_negative_pairs(positives, 99)
    return train_classifier(*training_set(positives, negatives, toy_lexicon), epochs=12, seed=7)
