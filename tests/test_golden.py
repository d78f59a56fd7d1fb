"""Pinned digests of the outputs of a small run, at two corpus seeds.

The inputs are the 41-pair corpus of ``test_invariance.py``, from the
benchmark's generator (``perfbench/synth.py``), at seeds 3 and 11.  The
test runs ``ingest``, ``dict --titles``, ``mine`` at ``--workers`` 1 and
2 and ``tune``, with default mining parameters, and scores every pair of
the corpus with ``classifier.score_pairs``.  The sha256 of each output
file, and of the float64 bytes of all score matrices in corpus order,
must equal the constants below.  The mined TSV prints scores to four
decimals, so only the score matrices show a change in a score's last
bit.

The model is a committed fixture, ``tests/golden/model-<seed>.json``:
``train`` fits it through BLAS (``np.dot``, ``@``), whose kernel, chosen
by the CPU, can change its last bits (the fixtures were fitted with numpy
2.4.6 and OpenBLAS 0.3.31 on its SkylakeX kernel; its Haswell, Nehalem
and Sandybridge kernels each fit other bits).  Nothing else here calls
BLAS: the lexicon's EM counts with ``np.bincount`` and divides, and
scoring is element-wise numpy and libm ``exp``.

After an intended change of an output, ``python tests/test_golden.py``
prints the new digests (``--train`` also rewrites the model fixtures
first, with ``train``).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from bimine.classifier import load_model, score_pairs
from bimine.cli import main
from bimine.corpus import load_corpus
from bimine.lexicon import read_lexicon

from conftest import load_synth

GOLDEN = Path(__file__).resolve().parent / "golden"
PAIRS = 41

DIGESTS = {
    3: {
        "corpus/pairs.tsv": "67da81be48abb5c8926b68fac8766f2bff52bb8954f8e522ab801dac13654406",
        "corpus/sentences.tsv": "39b27c8d8e60ed0a22d346288303b4bb1b9bafef72f6320a1de305e4449b30c3",
        "lexicon.tsv": "2f19af55f57ee1c6bbac187e9ea49ff23d3c2a9cd07e3816205b7e61f6e057b4",
        "mined1.tsv": "7ec4e5cdfb7e00da26b663df317911db9f29911513ce79b6978a2bbe75fef6b7",
        "mined2.tsv": "7ec4e5cdfb7e00da26b663df317911db9f29911513ce79b6978a2bbe75fef6b7",
        "report.json": "5ed91e75106b7ade3176e8ee724dd8dbfee593f100809927c1573b0c4826d8f4",
        "scores": "3068f8f6b51976ef1f03dddd4615bc4114e4898eac5efd0fa14f2bd15f7b3972",
    },
    11: {
        "corpus/pairs.tsv": "67da81be48abb5c8926b68fac8766f2bff52bb8954f8e522ab801dac13654406",
        "corpus/sentences.tsv": "bd25f7bf8dc68a90d57e4d1050d334c21820a549688e8e606b3a37ba10090591",
        "lexicon.tsv": "2c00f785d2c89834467b0d7665e6bd51d4b07151ba67e37496b6ff0fd3ea6a7c",
        "mined1.tsv": "2dfec9b6b884036a069c1d487c4ece7f06a59cd780a3b407809b5058a25c50df",
        "mined2.tsv": "2dfec9b6b884036a069c1d487c4ece7f06a59cd780a3b407809b5058a25c50df",
        "report.json": "54c835190942de70d4c78b2ea3ec7c8a3e35387ab6fa8047507fdd2a10120b4d",
        "scores": "b8a8380fff45ac752ea531ec711d2ea6188f783ca5c1df633b3da63541485107",
    },
}


def write_inputs(seed: int, out: Path) -> dict[str, str]:
    synth = load_synth()
    generated = synth.make_corpus(seed, PAIRS, (1, 24), 1.25, 0.5, 200)
    return synth.write_inputs(generated, str(out / "inputs"), seed)


def run(seed: int, out: Path) -> dict[str, str]:
    """Run the commands into ``out`` and return the sha256 of each output
    by its path under ``out``, and of the score matrices as ``scores``."""
    p = write_inputs(seed, out)
    corpus_dir, lexicon, model = out / "corpus", out / "lexicon.tsv", GOLDEN / f"model-{seed}.json"
    commands = [
        ["ingest", p["source_docs"], p["target_docs"], p["links"], corpus_dir,
         "--source-lang", "xs", "--target-lang", "xt"],
        ["dict", p["parallel"], lexicon, "--titles", p["titles"]],
        *(["mine", corpus_dir, model, lexicon, out / f"mined{w}.tsv", "--workers", w]
          for w in ("1", "2")),
        ["tune", corpus_dir, model, lexicon, p["reference"], "--budget", "20",
         "--out", out / "report.json"],
    ]
    for argv in commands:
        assert main([str(arg) for arg in argv]) == 0, argv
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in DIGESTS[seed]
        if name != "scores"
    }
    pairs = [(pair.source.sentences, pair.target.sentences) for pair in load_corpus(corpus_dir)]
    scores = hashlib.sha256()
    for matrix in score_pairs(load_model(model), read_lexicon(lexicon), pairs):
        assert not isinstance(matrix, ValueError), matrix
        scores.update(matrix.astype("<f8").tobytes())
    digests["scores"] = scores.hexdigest()
    return digests


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_outputs_equal_the_pinned_digests(seed, tmp_path):
    assert run(seed, tmp_path) == DIGESTS[seed]


if __name__ == "__main__":
    import sys
    import tempfile

    for seed in sorted(DIGESTS):
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch)
            if "--train" in sys.argv[1:]:
                p, lexicon, model = write_inputs(seed, out), out / "lexicon.tsv", out / "model.json"
                for argv in (
                    ["dict", p["parallel"], lexicon, "--titles", p["titles"]],
                    ["train", p["parallel"], lexicon, model],
                ):
                    assert main([str(arg) for arg in argv]) == 0, argv
                (GOLDEN / f"model-{seed}.json").write_bytes(model.read_bytes())
            print(seed, run(seed, out))
