"""Outputs do not depend on batch sizes or worker counts.

The fast paths cut their work into bounded batches: scoring blocks,
feature row runs and training blocks of ``classifier.BLOCK_CELLS``
cells, fill groups and alignment runs of ``kernels.BATCH_BYTES`` bytes,
file chunks of ``corpus.CHUNK_CHARS`` characters, and the pool chunks
of ``mine --workers``.  No batch boundary may show in an output.  The
inputs are a small corpus from the benchmark's generator
(``perfbench/synth.py``).
"""

import hashlib
from pathlib import Path

import pytest

from bimine import classifier, corpus, kernels
from bimine.cli import main

from conftest import load_synth

LANGS = ["--source-lang", "xs", "--target-lang", "xt"]
MINE_ARGS = ["--threshold", "0.3", "--gap-penalty", "0.6"]
# 41 pairs: at two workers the pool chunks hold 5 pairs and at four 2,
# and each last chunk holds 1.
PAIRS = 41


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    synth = load_synth()
    generated = synth.make_corpus(3, PAIRS, (1, 24), 1.25, 0.5, 200)
    return synth.write_inputs(generated, str(tmp_path_factory.mktemp("inputs")), 3)


def run_all(inputs: dict[str, str], out: Path) -> dict[str, str]:
    """Run ``ingest``, ``dict``, ``train``, ``mine`` at ``--workers`` 1 and
    2, and ``tune`` into ``out``; return the sha256 of each output file
    by its path under ``out``.  Run manifests, which hold wall times, are
    left out."""
    corpus_dir, lexicon, model = out / "corpus", out / "lexicon.tsv", out / "model.json"
    p = inputs
    commands = [
        ["ingest", p["source_docs"], p["target_docs"], p["links"], corpus_dir, *LANGS],
        ["dict", p["parallel"], lexicon, "--titles", p["titles"]],
        ["train", p["parallel"], lexicon, model],
        *(
            ["mine", corpus_dir, model, lexicon, out / f"mined{w}.tsv", "--workers", w, *MINE_ARGS]
            for w in ("1", "2")
        ),
        ["tune", corpus_dir, model, lexicon, p["reference"], "--budget", "20",
         "--out", out / "report.json"],
    ]
    for argv in commands:
        assert main([str(arg) for arg in argv]) == 0, argv
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith("manifest.json")
    }


@pytest.fixture(scope="module")
def defaults(inputs, tmp_path_factory) -> tuple[Path, dict[str, str]]:
    """The output directory of ``run_all`` at the default sizes, and its
    digests."""
    out = tmp_path_factory.mktemp("defaults")
    return out, run_all(inputs, out)


@pytest.mark.parametrize(
    "block_cells, batch_bytes, chunk_chars",
    [(1, 1, 1), (7, 3000, 50), (10**7, 10**9, 10**8)],
)
def test_outputs_do_not_depend_on_batch_sizes(
    inputs, defaults, tmp_path, monkeypatch, block_cells, batch_bytes, chunk_chars
):
    monkeypatch.setattr(classifier, "BLOCK_CELLS", block_cells)
    monkeypatch.setattr(kernels, "BATCH_BYTES", batch_bytes)
    monkeypatch.setattr(corpus, "CHUNK_CHARS", chunk_chars)
    digests = run_all(inputs, tmp_path)
    assert len(digests) == 7  # pairs, sentences, lexicon, model, two mined, report
    assert digests == defaults[1]


def test_mined_tsv_does_not_depend_on_worker_count(defaults):
    out, _ = defaults
    assert len(corpus.load_corpus(out / "corpus")) == PAIRS
    argv = ["mine", out / "corpus", out / "model.json", out / "lexicon.tsv", out / "mined4.tsv",
            "--workers", "4", *MINE_ARGS]
    assert main([str(arg) for arg in argv]) == 0
    mined = [(out / f"mined{workers}.tsv").read_bytes() for workers in (1, 2, 4)]
    assert mined[0]
    assert mined[1] == mined[0] and mined[2] == mined[0]
