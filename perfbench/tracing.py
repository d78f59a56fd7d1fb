"""Spans and counts around bimine's public calls, recorded from outside.

``install`` replaces each traced function, in every bimine module that
imported it, with a wrapper that records a span (name, parent, start,
end) and updates exact counters.  The program itself is not changed.
Spans are kept in memory and written out when the job ends.  Mining
pool workers are forked from the traced process and end without an exit
hook, so each worker appends its spans to a file after every document
pair instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

MODULES = ("text", "corpus", "lexicon", "classifier", "kernels", "align", "tuning", "manifest", "cli")


def _size(path) -> int:
    return os.path.getsize(path)


def _corpus_size(corpus_dir) -> int:
    # The two files of a paired corpus directory (not its run manifest).
    return sum(_size(os.path.join(corpus_dir, name)) for name in ("pairs.tsv", "sentences.tsv"))


def _count(counter: str, amount=lambda args, result: 1):
    def hook(counts, args, result) -> None:
        counts[counter] += amount(args, result)

    return hook


def _count_matches(counts, args, result) -> None:
    counts["align.matches"] += sum(1 for step in args[1].steps if type(step).__name__ == "Match")
    counts["align.emitted"] += len(result)


_read = _count("corpus.bytes_read", lambda args, result: _size(args[0]))
_dp_cells = _count("kernels.dp_cells", lambda args, result: args[0].size)

# (module, function, span name or None for a count-only wrapper, counter hook)
TARGETS = (
    ("text", "clean_markup", "text.clean", None),
    ("text", "segment_sentences", "text.segment", _count("text.sentences", lambda a, r: len(r))),
    ("text", "tokenize", "text.tokenize", None),
    ("corpus", "ingest_documents", "corpus.ingest", _read),
    ("corpus", "read_links", "corpus.read", _read),
    ("corpus", "read_parallel", "corpus.read", _read),
    ("corpus", "pair_articles", "corpus.pair", None),
    ("corpus", "load_corpus", "corpus.load",
     _count("corpus.bytes_read", lambda a, r: _corpus_size(a[0]))),
    ("corpus", "save_corpus", "corpus.save",
     _count("corpus.bytes_written", lambda a, r: _corpus_size(a[1]))),
    ("corpus", "write_bitext", "corpus.write_bitext",
     _count("corpus.bytes_written", lambda a, r: _size(a[0]))),
    ("lexicon", "build_lexicon", "lexicon.build", None),
    ("lexicon", "merge_title_lexicon", "lexicon.merge", None),
    ("lexicon", "write_lexicon", "lexicon.write", None),
    ("lexicon", "read_lexicon", "lexicon.read", None),
    ("classifier", "extract_features", None, _count("classifier.features_extracted")),
    ("classifier", "make_negative_pairs", "classifier.negatives", None),
    ("classifier", "train_classifier", "classifier.train", None),
    ("classifier", "training_accuracy", "classifier.accuracy", None),
    ("classifier", "save_model", "classifier.save", None),
    ("classifier", "load_model", "classifier.load", None),
    ("align", "mine_corpus", "align.mine_corpus", None),
    ("align", "mine_document_pair", "align.pair", None),
    ("align", "build_score_matrix", "align.score",
     _count("align.cells_scored", lambda a, r: r.size)),
    ("align", "nw_align", "align.nw", None),
    ("align", "nw_align_wavefront", "align.nw", None),
    ("align", "astar_align", "align.astar", None),
    ("align", "filter_by_threshold", "align.filter", _count_matches),
    ("kernels", "fill_sequential", "kernels.fill", _dp_cells),
    ("kernels", "fill_wavefront", "kernels.fill", _dp_cells),
    ("tuning", "tune", "tuning.tune", None),
    ("tuning", "alignment_agreement", "tuning.agreement", _count("tuning.realignments")),
    ("tuning", "read_reference", "tuning.read_reference", None),
    ("manifest", "file_digest", "manifest.digest", None),
    ("manifest", "write_manifest", "manifest.write", None),
)


class Tracer:
    """In-memory span recorder for one process and its forked workers."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.lexicon_inputs: list = []  # (training pairs, built lexicon), counted after the job
        self.main_pid = os.getpid()
        self.tokenize = None  # the unwrapped tokenizer, for counts taken after the job

    def _after_fork(self) -> None:
        # A mining pool worker: start an empty record of its own.
        self.pid = os.getpid()
        self.spans, self.stack, self.counts = [], [], defaultdict(int)

    def _flush_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], defaultdict(int)

    def wrap(self, fn, name, hook):
        tracer = self
        perf_counter = time.perf_counter

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer.counts, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            tracer.spans.append(record)
            stack.append(len(tracer.spans) - 1)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            if name == "lexicon.build":
                tracer.lexicon_inputs.append((args[0], result))
            if name == "align.pair" and not stack and os.getpid() != tracer.main_pid:
                tracer._flush_worker()
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every bimine module that names it."""
        self.tokenize = importlib.import_module("bimine.text").tokenize
        modules = [importlib.import_module("bimine")] + [
            importlib.import_module(f"bimine.{name}") for name in MODULES
        ]
        for module_name, func_name, span, hook in TARGETS:
            original = getattr(importlib.import_module(f"bimine.{module_name}"), func_name)
            wrapped = self.wrap(original, span, hook)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapped)
        os.register_at_fork(after_in_child=self._after_fork)

    def finish(self) -> tuple[list, dict]:
        """All spans as (process, name, parent, start, end) and merged counts.

        Counts that need a second pass over a layer's input (co-occurring
        token pairs, lexicon entries) are taken here, after the job, so
        that they do not add to any span.
        """
        tokenize = self.tokenize
        for parallel, lexicon in self.lexicon_inputs:
            support = set()
            for source, target in parallel:
                target_tokens = set(tokenize(target))
                for s in set(tokenize(source)):
                    support.update((s, t) for t in target_tokens)
            self.counts["lexicon.cooccurrence_pairs"] += len(support)
            self.counts["lexicon.entries"] += len(lexicon)
        spans = [("main", *record) for record in self.spans]
        counts = defaultdict(int, self.counts)
        for entry in sorted(os.listdir(self.worker_dir)):
            if not entry.startswith("worker-"):
                continue
            with open(os.path.join(self.worker_dir, entry), encoding="utf-8") as handle:
                for line in handle:
                    batch = json.loads(line)
                    base = len(spans)
                    spans.extend(
                        (entry, name, parent if parent < 0 else parent + base, start, end)
                        for name, parent, start, end in batch["spans"]
                    )
                    for key, value in batch["counts"].items():
                        counts[key] += value
        return spans, dict(counts)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(spans: list, counts: dict, job_s: float, workers: int) -> dict[str, float]:
    """Per-layer busy and self time, named operation times and ratios.

    A span's self time is its duration minus its direct children's.  A
    layer's busy time counts only its outermost spans, so nested calls
    within one layer are not counted twice.  Worker spans add to busy
    and self time; only spans of the traced process itself partition
    ``job_s``, and what their top level leaves uncovered is reported as
    ``unattributed_s``.
    """
    duration = [end - start for _, _, _, start, end in spans]
    child_time = [0.0] * len(spans)
    for k, (_, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[k]

    def ancestors(k):
        parent = spans[k][2]
        while parent >= 0:
            yield parent
            parent = spans[parent][2]

    by_name: dict[str, float] = defaultdict(float)
    layer_busy: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    top_level = 0.0
    for k, (process, name, parent, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        by_name[name] += duration[k]
        layer_self[layer] += duration[k] - child_time[k]
        if not any(spans[a][1].split(".")[0] == layer for a in ancestors(k)):
            layer_busy[layer] += duration[k]
        if process == "main" and parent < 0:
            top_level += duration[k]

    def covered(prefixes: tuple[str, ...]) -> float:
        # Wall time of the traced process inside any span named by
        # ``prefixes``, counting nested matches once.
        total = 0.0
        for k, (process, name, _, _, _) in enumerate(spans):
            if process != "main" or not name.startswith(prefixes):
                continue
            if not any(spans[a][1].startswith(prefixes) for a in ancestors(k)):
                total += duration[k]
        return total

    pair_ms = [duration[k] * 1e3 for k, s in enumerate(spans) if s[1] == "align.pair"]
    traceback_self = sum(
        duration[k] - child_time[k] for k, s in enumerate(spans) if s[1] == "align.nw"
    )
    cells = counts.get("align.cells_scored", 0)
    dp_cells = counts.get("kernels.dp_cells", 0)
    matches = counts.get("align.matches", 0)
    metrics: dict[str, float] = {
        "trace.job_s": job_s,
        "unattributed_s": job_s - top_level,
        "align.score_s": by_name["align.score"],
        "align.us_per_cell": by_name["align.score"] / cells * 1e6 if cells else 0.0,
        "kernels.fill_s": by_name["kernels.fill"],
        "kernels.ns_per_dp_cell": by_name["kernels.fill"] / dp_cells * 1e9 if dp_cells else 0.0,
        "align.traceback_self_s": traceback_self,
        "align.filter_s": by_name["align.filter"],
        "align.emit_ratio": counts.get("align.emitted", 0) / matches if matches else 0.0,
        "align.pair_ms.p50": _percentile(pair_ms, 50),
        "align.pair_ms.p90": _percentile(pair_ms, 90),
        "align.fanout_efficiency": (
            sum(pair_ms) / 1e3 / (workers * by_name["align.mine_corpus"])
            if by_name["align.mine_corpus"]
            else 0.0
        ),
        "tuning.agreement_s": by_name["tuning.agreement"],
        "lexicon.build_s": by_name["lexicon.build"],
        "classifier.train_s": by_name["classifier.train"],
        "corpus.ingest_s": by_name["corpus.ingest"],
        "corpus.load_s": by_name["corpus.load"],
        "corpus.save_s": by_name["corpus.save"],
        "corpus.write_bitext_s": by_name["corpus.write_bitext"],
        "manifest.digest_s": by_name["manifest.digest"],
        "split.score_share": covered(("align.score",)) / job_s,
        "split.fill_agreement_share": covered(("kernels.fill", "tuning.agreement")) / job_s,
        "split.lexicon_text_corpus_share": covered(("lexicon.build", "text.", "corpus.")) / job_s,
    }
    for layer in ("text", "corpus", "lexicon", "classifier", "align", "kernels", "tuning", "manifest"):
        metrics[f"{layer}.busy_s"] = layer_busy[layer]
        metrics[f"{layer}.self_s"] = layer_self[layer]
    for key in (
        "align.cells_scored", "kernels.dp_cells", "align.matches", "align.emitted",
        "tuning.realignments", "lexicon.cooccurrence_pairs", "lexicon.entries",
        "classifier.features_extracted", "text.sentences", "corpus.bytes_read",
        "corpus.bytes_written",
    ):
        metrics[key] = counts.get(key, 0)
    return metrics
