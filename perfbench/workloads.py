"""The benchmark's workloads: set-up, the timed command(s) and output checks.

Every workload drives ``bimine.cli.main`` in-process, exactly as the
``bimine`` command would run, on inputs that ``synth`` generates from
the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from collections import Counter
from dataclasses import dataclass

import synth

# Mining parameters near what ``bimine tune`` picks on this corpus; the
# defaults (0.5, 2.0) recall under half of the planted pairs.
MINE_ARGS = ["--threshold", "0.3", "--gap-penalty", "0.6"]
LANGS = ["--source-lang", "xs", "--target-lang", "xt"]

# Output floors, set below the lowest values seen over seeds 1-20 (precision
# 0.93, recall 0.84, tuned agreement 90%).
PRECISION_FLOOR = 0.85
RECALL_FLOOR = 0.75
AGREEMENT_FLOOR = 80.0


@dataclass(frozen=True)
class Sizes:
    pairs: int
    sentences: tuple[int, int]  # shorter side of a pair, from a fixed ladder
    ratio: float  # longer side over shorter side
    planted_share: float
    training_pairs: int
    budget: int = 0  # tuning trials


@dataclass
class Inputs:
    corpus: synth.Corpus
    paths: dict[str, str]


def cli(*argv: str) -> tuple[int, str]:
    """Run one bimine command in-process; return its exit code and stderr."""
    from bimine.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def must(*argv: str) -> None:
    code, err = cli(*argv)
    if code != 0:
        raise RuntimeError(f"bimine {argv[0]} exited {code}: {err.strip()}")


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def precision_recall(mined_path: str, truth: list[tuple[str, str]]) -> tuple[float, float]:
    """Share of mined rows that are planted, and of planted pairs that are mined."""
    with open(mined_path, encoding="utf-8") as handle:
        mined = Counter(tuple(line.rstrip("\n").split("\t")[1:3]) for line in handle if line.strip())
    planted = Counter(truth)
    hits = sum((mined & planted).values())
    return hits / max(sum(mined.values()), 1), hits / max(len(truth), 1)


def mine(corpus_dir: str, model: str, lexicon: str, out: str, workers: int) -> tuple[float, int]:
    """Run ``bimine mine``; return its wall time and the number of failed pairs."""
    start = time.perf_counter()
    code, err = cli("mine", corpus_dir, model, lexicon, out, "--workers", str(workers), *MINE_ARGS)
    elapsed = time.perf_counter() - start
    failed = sum(1 for line in err.splitlines() if line.startswith("failed: "))
    if code != 0 and not failed:
        raise RuntimeError(f"bimine mine exited {code}: {err.strip()}")
    return elapsed, failed


class Workload:
    name = ""
    why = ""
    workers = 1  # mining pool size of the timed job
    unit = "document pairs"
    sizes: dict[str, Sizes] = {}

    def __init__(self, scale: str):
        self.size = self.sizes[scale]

    def setup(self, seed: int, work_dir: str) -> Inputs:
        s = self.size
        corpus = synth.make_corpus(
            seed, s.pairs, s.sentences, s.ratio, s.planted_share, s.training_pairs
        )
        return Inputs(corpus, synth.write_inputs(corpus, work_dir, seed))

    def units(self, inputs: Inputs) -> int:
        return len(inputs.corpus.pairs)

    def job(self, inputs: Inputs, out_dir: str) -> dict:
        """Run the timed command(s); return stage times, outputs and failures."""
        raise NotImplementedError

    def check(self, inputs: Inputs, job: dict, first: bool) -> tuple[dict, list[str]]:
        """Quality figures of one job's output and the problems found."""
        precision, recall = precision_recall(job["outputs"]["mined"], inputs.corpus.truth())
        problems = []
        if precision < PRECISION_FLOOR:
            problems.append(f"mined_precision {precision:.4f} below {PRECISION_FLOOR}")
        if recall < RECALL_FLOOR:
            problems.append(f"mined_recall {recall:.4f} below {RECALL_FLOOR}")
        return {"mined_precision": precision, "mined_recall": recall}, problems

    def final_check(self, inputs: Inputs, first_job: dict, out_dir: str) -> list[str]:
        """A check made once per benchmark run, after the timed loop."""
        return []


class PipelineManyDocs(Workload):
    name = "pipeline-many-docs"
    why = (
        "full ingest, dict, train and mine over many short pairs: markup cleaning, file I/O, "
        "EM, training and the pool fan-out do the work; each score matrix is tiny"
    )
    workers = 2
    sizes = {
        "full": Sizes(pairs=1200, sentences=(4, 12), ratio=1.25, planted_share=0.5, training_pairs=2000),
        "tiny": Sizes(pairs=12, sentences=(4, 8), ratio=1.25, planted_share=0.5, training_pairs=1000),
    }

    def job(self, inputs: Inputs, out_dir: str) -> dict:
        p = inputs.paths
        corpus_dir = os.path.join(out_dir, "corpus")
        lexicon = os.path.join(out_dir, "lexicon.tsv")
        model = os.path.join(out_dir, "model.json")
        mined = os.path.join(out_dir, "mined.tsv")
        must("ingest", p["source_docs"], p["target_docs"], p["links"], corpus_dir, *LANGS)
        must("dict", p["parallel"], lexicon, "--titles", p["titles"])
        must("train", p["parallel"], lexicon, model)
        mine_s, failed = mine(corpus_dir, model, lexicon, mined, self.workers)
        return {
            "mine_s": mine_s,
            "failed": failed,
            "outputs": {"mined": mined, "lexicon": lexicon, "model": model},
            "corpus_dir": corpus_dir,
        }

    def check(self, inputs: Inputs, job: dict, first: bool) -> tuple[dict, list[str]]:
        quality, problems = super().check(inputs, job, first)
        if first:
            # The planted truth holds only if ingest recovers every
            # generated sentence through the markup noise.
            from bimine.corpus import load_corpus

            ingested = [(p.source.sentences, p.target.sentences) for p in load_corpus(job["corpus_dir"])]
            expected = [(p.source, p.target) for p in inputs.corpus.pairs]
            if ingested != expected:
                problems.append("ingested sentences differ from the generated documents")
        return quality, problems

    def final_check(self, inputs: Inputs, first_job: dict, out_dir: str) -> list[str]:
        serial = os.path.join(out_dir, "mined_workers1.tsv")
        outputs = first_job["outputs"]
        mine(first_job["corpus_dir"], outputs["model"], outputs["lexicon"], serial, 1)
        if digest(serial) != digest(outputs["mined"]):
            return ["mined output differs between --workers 1 and --workers 2"]
        return []


class _PrebuiltModel(Workload):
    """Set-up also writes the paired corpus and builds the lexicon and model."""

    def setup(self, seed: int, work_dir: str) -> Inputs:
        from bimine.corpus import Document, DocumentPair, save_corpus

        inputs = super().setup(seed, work_dir)
        p = inputs.paths
        p["corpus"] = os.path.join(work_dir, "corpus")
        p["lexicon"] = os.path.join(work_dir, "lexicon.tsv")
        p["model"] = os.path.join(work_dir, "model.json")
        # The corpus is saved as generated; ``bimine ingest`` is timed in
        # pipeline-many-docs.
        save_corpus(
            [
                DocumentPair(
                    pair.topic_id,
                    Document(f"s{k}", "xs", pair.source_title, pair.source),
                    Document(f"t{k}", "xt", pair.target_title, pair.target),
                )
                for k, pair in enumerate(inputs.corpus.pairs)
            ],
            p["corpus"],
        )
        must("dict", p["parallel"], p["lexicon"], "--titles", p["titles"])
        must("train", p["parallel"], p["lexicon"], p["model"])
        return inputs


class MineLongDocs(_PrebuiltModel):
    name = "mine-long-docs"
    why = (
        "mine alone, one worker, over a few long pairs: per-cell scoring is nearly all of the "
        "job, so a scoring change shows and a fill or fan-out change should not"
    )
    sizes = {
        "full": Sizes(pairs=6, sentences=(120, 220), ratio=1.2, planted_share=0.33, training_pairs=2000),
        "tiny": Sizes(pairs=2, sentences=(15, 25), ratio=1.2, planted_share=0.33, training_pairs=2000),
    }

    def job(self, inputs: Inputs, out_dir: str) -> dict:
        p = inputs.paths
        mined = os.path.join(out_dir, "mined.tsv")
        mine_s, failed = mine(p["corpus"], p["model"], p["lexicon"], mined, self.workers)
        return {"mine_s": mine_s, "failed": failed, "outputs": {"mined": mined}}


class TuneRealign(_PrebuiltModel):
    name = "tune-realign"
    why = (
        "tune with a large budget: each sample is scored once and realigned on every trial, "
        "so fill, traceback and agreement dominate and scoring barely shows"
    )
    unit = "trials"
    sizes = {
        "full": Sizes(pairs=8, sentences=(30, 70), ratio=1.2, planted_share=0.4, training_pairs=2000, budget=120),
        "tiny": Sizes(pairs=3, sentences=(15, 25), ratio=1.2, planted_share=0.4, training_pairs=2000, budget=40),
    }

    def units(self, inputs: Inputs) -> int:
        return self.size.budget

    def job(self, inputs: Inputs, out_dir: str) -> dict:
        p = inputs.paths
        report = os.path.join(out_dir, "tuning_report.json")
        must(
            "tune", p["corpus"], p["model"], p["lexicon"], p["reference"],
            "--budget", str(self.size.budget), "--out", report,
        )
        return {"failed": 0, "outputs": {"report": report}}

    def check(self, inputs: Inputs, job: dict, first: bool) -> tuple[dict, list[str]]:
        with open(job["outputs"]["report"], encoding="utf-8") as handle:
            report = json.load(handle)
        problems = []
        if report["trials"] != self.size.budget:
            problems.append(f"report lists {report['trials']} trials, expected {self.size.budget}")
        if report["agreement"] < report["default_agreement"]:
            problems.append("tuned agreement is below the agreement of the defaults")
        if report["agreement"] < AGREEMENT_FLOOR:
            problems.append(f"tuned agreement {report['agreement']:.2f}% below {AGREEMENT_FLOOR}%")
        return {"tuned_agreement_pct": report["agreement"]}, problems


WORKLOADS = {w.name: w for w in (PipelineManyDocs, MineLongDocs, TuneRealign)}
