"""End-to-end command-line flows over a small synthetic corpus."""

import json
import time

import numpy as np
import pytest

from bimine.cli import main
from bimine.corpus import load_corpus, read_parallel

from conftest import build_corpus_files


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus directory, lexicon and model produced through the CLI."""
    root = tmp_path_factory.mktemp("pipeline")
    build_corpus_files(root, np.random.default_rng(271828))
    assert (
        main(
            [
                "ingest",
                str(root / "source_docs.tsv"),
                str(root / "target_docs.tsv"),
                str(root / "links.tsv"),
                str(root / "corpus"),
                "--source-lang",
                "eo",
                "--target-lang",
                "en",
            ]
        )
        == 0
    )
    assert main(["dict", str(root / "parallel.tsv"), str(root / "lexicon.tsv")]) == 0
    assert (
        main(
            [
                "train",
                str(root / "parallel.tsv"),
                str(root / "lexicon.tsv"),
                str(root / "model.json"),
                "--epochs",
                "10",
            ]
        )
        == 0
    )
    return root


class TestIngest:
    def test_counts_printed_and_corpus_loadable(self, pipeline, capsys):
        pairs = load_corpus(pipeline / "corpus")
        assert len(pairs) == 4
        assert (pipeline / "corpus" / "manifest.json").exists()

    def test_skip_counting(self, tmp_path, capsys):
        (tmp_path / "s.tsv").write_text("s1\tAlpha\tFirst text here.\n", encoding="utf-8")
        (tmp_path / "t.tsv").write_text("t1\tAlfa\tInny tekst tutaj.\n", encoding="utf-8")
        (tmp_path / "l.tsv").write_text("Alpha\tAlfa\nAlpha\tMissing\n", encoding="utf-8")
        code = main(
            [
                "ingest",
                str(tmp_path / "s.tsv"),
                str(tmp_path / "t.tsv"),
                str(tmp_path / "l.tsv"),
                str(tmp_path / "corpus"),
                "--source-lang",
                "en",
                "--target-lang",
                "pl",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 paired, 1 skipped, 0 duplicates" in out

    def test_document_without_sentences_names_its_line(self, tmp_path, capsys):
        source = tmp_path / "s.tsv"
        source.write_text(
            "d1\tAlpha\tFirst text here.\nd2\tBeta\t<table></table>\n", encoding="utf-8"
        )
        (tmp_path / "t.tsv").write_text("t1\tAlfa\tInny tekst tutaj.\n", encoding="utf-8")
        (tmp_path / "l.tsv").write_text("Alpha\tAlfa\n", encoding="utf-8")
        code = main(
            [
                "ingest",
                str(source),
                str(tmp_path / "t.tsv"),
                str(tmp_path / "l.tsv"),
                str(tmp_path / "corpus"),
                "--source-lang",
                "en",
                "--target-lang",
                "pl",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {source}: line 2: document d2 has no sentences\n"

    def test_unreadable_file_names_path(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                str(tmp_path / "missing.tsv"),
                str(tmp_path / "missing.tsv"),
                str(tmp_path / "missing.tsv"),
                str(tmp_path / "corpus"),
                "--source-lang",
                "en",
                "--target-lang",
                "pl",
            ]
        )
        assert code == 1
        assert "missing.tsv" in capsys.readouterr().err


class TestDict:
    def test_single_pair_exact_file(self, tmp_path):
        (tmp_path / "p.tsv").write_text("a\tx\n", encoding="utf-8")
        assert main(["dict", str(tmp_path / "p.tsv"), str(tmp_path / "lex.tsv")]) == 0
        assert (tmp_path / "lex.tsv").read_text(encoding="utf-8") == "a\tx\t1.000000\n"

    def test_titles_merged(self, tmp_path):
        (tmp_path / "p.tsv").write_text("a\tx\n", encoding="utf-8")
        (tmp_path / "titles.tsv").write_text("Dog\tPies\n", encoding="utf-8")
        assert (
            main(
                [
                    "dict",
                    str(tmp_path / "p.tsv"),
                    str(tmp_path / "lex.tsv"),
                    "--titles",
                    str(tmp_path / "titles.tsv"),
                ]
            )
            == 0
        )
        assert "dog\tpies\t1.000000" in (tmp_path / "lex.tsv").read_text(encoding="utf-8")

    def test_byte_order_mark_dropped(self, pipeline, tmp_path):
        parallel = (pipeline / "parallel.tsv").read_bytes()
        (tmp_path / "bom.tsv").write_bytes(b"\xef\xbb\xbf" + parallel)
        assert main(["dict", str(pipeline / "parallel.tsv"), str(tmp_path / "plain_lex.tsv")]) == 0
        assert main(["dict", str(tmp_path / "bom.tsv"), str(tmp_path / "bom_lex.tsv")]) == 0
        assert (tmp_path / "bom_lex.tsv").read_bytes() == (tmp_path / "plain_lex.tsv").read_bytes()

    def test_invalid_utf8_names_its_line(self, tmp_path, capsys):
        # Far past the reader's decoding block, so that the line after the
        # last one read would be the wrong answer.
        lines = [b"a b\tx y\n"] * 4500
        lines[3999] = b"a \xff b\tx y\n"
        parallel = tmp_path / "p.tsv"
        parallel.write_bytes(b"".join(lines))
        assert main(["dict", str(parallel), str(tmp_path / "lex.tsv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {parallel}: line 4000: not UTF-8 (byte 0xff at column 3: invalid start byte)\n"
        )
        assert not (tmp_path / "lex.tsv").exists()

    def test_zero_iterations_usage_error(self, tmp_path):
        (tmp_path / "p.tsv").write_text("a\tx\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["dict", str(tmp_path / "p.tsv"), str(tmp_path / "lex.tsv"), "--iterations", "0"])
        assert excinfo.value.code == 2


class TestTrain:
    def test_reports_full_accuracy(self, pipeline, capsys):
        capsys.readouterr()
        assert (
            main(
                [
                    "train",
                    str(pipeline / "parallel.tsv"),
                    str(pipeline / "lexicon.tsv"),
                    str(pipeline / "model2.json"),
                    "--epochs",
                    "10",
                ]
            )
            == 0
        )
        assert "training accuracy: 100.0%" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, pipeline):
        first = (pipeline / "model.json").read_bytes()
        second = (pipeline / "model2.json").read_bytes()
        assert first == second

    def test_empty_parallel_file_fails(self, tmp_path, pipeline, capsys):
        (tmp_path / "empty.tsv").write_text("", encoding="utf-8")
        code = main(
            [
                "train",
                str(tmp_path / "empty.tsv"),
                str(pipeline / "lexicon.tsv"),
                str(tmp_path / "m.json"),
            ]
        )
        assert code == 1
        assert "no training pairs" in capsys.readouterr().err

    def test_duplicate_lexicon_entry_fails(self, tmp_path, pipeline, capsys):
        lexicon = tmp_path / "dup.tsv"
        lexicon.write_text("a\tx\t0.900000\na\tx\t0.100000\n", encoding="utf-8")
        code = main(
            ["train", str(pipeline / "parallel.tsv"), str(lexicon), str(tmp_path / "m.json")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{lexicon}: line 2: duplicate entry 'a' -> 'x' (first on line 1)" in err
        assert not (tmp_path / "m.json").exists()

    def test_each_distinct_training_sentence_profiled_once(self, tmp_path, pipeline, monkeypatch):
        import bimine.classifier

        calls = []
        real = bimine.classifier.profile_sentence

        def counting(sentence):
            calls.append(sentence)
            return real(sentence)

        monkeypatch.setattr(bimine.classifier, "profile_sentence", counting)
        parallel, lexicon = str(pipeline / "parallel.tsv"), str(pipeline / "lexicon.tsv")
        assert main(["train", parallel, lexicon, str(tmp_path / "m.json")]) == 0
        positives = read_parallel(pipeline / "parallel.tsv")
        # Negatives reuse the positives' sentences, and the accuracy pass
        # reuses the features.
        assert sorted(calls) == sorted({sentence for pair in positives for sentence in pair})

    def test_untokenizable_pairs_skipped(self, tmp_path, pipeline, capsys):
        parallel, lexicon = pipeline / "parallel.tsv", str(pipeline / "lexicon.tsv")
        lines = parallel.read_text(encoding="utf-8").splitlines(keepends=True)
        noisy = tmp_path / "noisy.tsv"
        noisy.write_text(
            "".join(lines[:3] + ["!!!\tle chien\n", "\tzork\n"] + lines[3:] + ["zork\t...\n"]),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["train", str(parallel), lexicon, str(tmp_path / "clean.json")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["train", str(noisy), lexicon, str(tmp_path / "noisy.json")]) == 0
        assert capsys.readouterr().err == "skipped 3 untokenizable training pairs\n"
        # Dropped before the negatives are drawn: the model is the clean one.
        assert (tmp_path / "noisy.json").read_bytes() == (tmp_path / "clean.json").read_bytes()

    def test_only_untokenizable_pairs_fail(self, tmp_path, pipeline, capsys):
        parallel = tmp_path / "bad.tsv"
        parallel.write_text("!!!\tle chien\n...\t?\n", encoding="utf-8")
        lexicon = str(pipeline / "lexicon.tsv")
        code = main(["train", str(parallel), lexicon, str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"skipped 2 untokenizable training pairs\nerror: {parallel}: no training pairs\n"
        )
        assert not (tmp_path / "m.json").exists()

    def test_manifest_wall_time_covers_accuracy_pass(self, tmp_path, pipeline, monkeypatch):
        import bimine.cli

        real_accuracy = bimine.cli.training_accuracy

        def slow_accuracy(*args):
            time.sleep(0.4)
            return real_accuracy(*args)

        monkeypatch.setattr(bimine.cli, "training_accuracy", slow_accuracy)
        model = str(tmp_path / "m.json")
        assert main(["train", str(pipeline / "parallel.tsv"), str(pipeline / "lexicon.tsv"), model]) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text(encoding="utf-8"))
        assert manifest["wall_time_ms"] >= 400


class TestMine:
    def run_mine(self, pipeline, out_name, *extra):
        return main(
            [
                "mine",
                str(pipeline / "corpus"),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(pipeline / out_name),
                *extra,
            ]
        )

    def test_mines_expected_pairs(self, pipeline, capsys):
        assert self.run_mine(pipeline, "mined.tsv") == 0
        out = capsys.readouterr().out
        assert "20 sentence pairs mined from 4 document pairs" in out
        lines = (pipeline / "mined.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 20
        assert (pipeline / "mined.tsv.manifest.json").exists()

    def test_worker_count_does_not_change_bytes(self, pipeline):
        assert self.run_mine(pipeline, "mined_w1.tsv", "--workers", "1") == 0
        assert self.run_mine(pipeline, "mined_w4.tsv", "--workers", "4") == 0
        assert (pipeline / "mined_w1.tsv").read_bytes() == (
            pipeline / "mined_w4.tsv"
        ).read_bytes()

    def test_engines_agree(self, pipeline):
        for engine in ("nw", "nw-wavefront", "astar"):
            assert self.run_mine(pipeline, f"mined_{engine}.tsv", "--engine", engine) == 0
        nw = (pipeline / "mined_nw.tsv").read_bytes()
        assert nw == (pipeline / "mined_nw-wavefront.tsv").read_bytes()
        assert nw == (pipeline / "mined_astar.tsv").read_bytes()

    def test_impossible_threshold_mines_nothing(self, pipeline, capsys):
        assert self.run_mine(pipeline, "mined_none.tsv", "--threshold", "1.0") == 0
        assert "0 sentence pairs" in capsys.readouterr().out
        assert (pipeline / "mined_none.tsv").read_text(encoding="utf-8") == ""

    def test_non_finite_model_is_an_error(self, pipeline, tmp_path, capsys):
        data = json.loads((pipeline / "model.json").read_text(encoding="utf-8"))
        data["sigmoid_a"] = float("nan")
        bad_model = tmp_path / "model.json"
        bad_model.write_text(json.dumps(data), encoding="utf-8")
        code = main(
            [
                "mine",
                str(pipeline / "corpus"),
                str(bad_model),
                str(pipeline / "lexicon.tsv"),
                str(tmp_path / "mined.tsv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sigmoid_a" in err
        assert not (tmp_path / "mined.tsv").exists()

    @pytest.mark.parametrize("option", ["--gap-penalty", "--match-bonus", "--mismatch-cost"])
    def test_non_finite_parameter_is_an_error(self, pipeline, capsys, option):
        assert self.run_mine(pipeline, "mined_nan.tsv", option, "nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert not (pipeline / "mined_nan.tsv").exists()

    def test_unconstrained_engine_is_usage_error(self, pipeline, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run_mine(pipeline, "mined_bad.tsv", "--engine", "astar-unconstrained")
        assert excinfo.value.code == 2
        assert "diagnostic-only" in capsys.readouterr().err

    def test_topic_without_sentences_names_its_pair_line(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        pairs = (pipeline / "corpus" / "pairs.tsv").read_text(encoding="utf-8")
        extra = "Extra\tsx\teo\tExtra\ttx\ten\tExtra\n"
        (corpus / "pairs.tsv").write_text(pairs + extra, encoding="utf-8")
        (corpus / "sentences.tsv").write_bytes((pipeline / "corpus" / "sentences.tsv").read_bytes())
        code = main(
            [
                "mine",
                str(corpus),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(tmp_path / "mined.tsv"),
            ]
        )
        assert code == 1
        line = len(pairs.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"error: {corpus / 'pairs.tsv'}: line {line}: document sx has no sentences\n"
        )
        assert not (tmp_path / "mined.tsv").exists()

    def test_input_files_not_mutated(self, pipeline):
        model_before = (pipeline / "model.json").read_bytes()
        lexicon_before = (pipeline / "lexicon.tsv").read_bytes()
        assert self.run_mine(pipeline, "mined_again.tsv") == 0
        assert (pipeline / "model.json").read_bytes() == model_before
        assert (pipeline / "lexicon.tsv").read_bytes() == lexicon_before


class TestStats:
    def test_three_row_table(self, pipeline, capsys):
        assert self.mine_once(pipeline) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "stats",
                    str(pipeline / "stats_input.tsv"),
                    "--manifest-out",
                    str(pipeline / "stats.manifest.json"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[0].startswith("bi-sentences")
        assert (pipeline / "stats.manifest.json").exists()

    @staticmethod
    def mine_once(pipeline):
        return main(
            [
                "mine",
                str(pipeline / "corpus"),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(pipeline / "stats_input.tsv"),
            ]
        )


class TestTune:
    def make_reference(self, pipeline, threshold=0.6):
        from bimine.align import MiningConfig, align_pair_indices
        from bimine.classifier import load_model
        from bimine.lexicon import read_lexicon

        pairs = load_corpus(pipeline / "corpus")
        model = load_model(pipeline / "model.json")
        lexicon = read_lexicon(pipeline / "lexicon.tsv")
        lines = []
        for pair in pairs:
            mined = align_pair_indices(
                model, lexicon, pair, MiningConfig(threshold=threshold), engine="nw"
            )
            for _, i, j in mined:
                lines.append(f"{pair.topic_id}\t{i}\t{j}")
        (pipeline / "reference.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_tune_reports_nonnegative_improvement(self, pipeline, capsys):
        self.make_reference(pipeline)
        code = main(
            [
                "tune",
                str(pipeline / "corpus"),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(pipeline / "reference.tsv"),
                "--budget",
                "20",
                "--out",
                str(pipeline / "tuning_report.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "improvement over defaults:" in out
        report = json.loads((pipeline / "tuning_report.json").read_text(encoding="utf-8"))
        assert report["agreement"] >= report["default_agreement"]
        assert report["trials"] == 20
        assert len(report["per_sample_agreement"]) == 4

    def test_budget_one_is_defaults(self, pipeline, capsys):
        self.make_reference(pipeline)
        code = main(
            [
                "tune",
                str(pipeline / "corpus"),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(pipeline / "reference.tsv"),
                "--budget",
                "1",
                "--out",
                str(pipeline / "tuning_b1.json"),
            ]
        )
        assert code == 0
        assert "improvement over defaults: 0.00%" in capsys.readouterr().out

    def test_unknown_topic_in_reference(self, pipeline, capsys):
        (pipeline / "bad_reference.tsv").write_text("NoSuchTopic\t0\t0\n", encoding="utf-8")
        code = main(
            [
                "tune",
                str(pipeline / "corpus"),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(pipeline / "bad_reference.tsv"),
                "--budget",
                "2",
                "--out",
                str(pipeline / "tuning_bad.json"),
            ]
        )
        assert code == 1
        assert "NoSuchTopic" in capsys.readouterr().err

    def test_non_numeric_reference_index_is_an_error(self, pipeline, capsys):
        reference = pipeline / "nonnumeric_reference.tsv"
        reference.write_text("Topic 0\t0\tzero\n", encoding="utf-8")
        code = main(
            [
                "tune",
                str(pipeline / "corpus"),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(reference),
                "--budget",
                "2",
                "--out",
                str(pipeline / "tuning_nonnumeric.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reference}: line 1: indices")

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                "Topic 0\t0\t0\nTopic 0\t0\t0\n",
                "line 2: duplicate reference pair 'Topic 0' 0 0 (first on line 1)",
            ),
            ("Topic 0\t-1\t0\n", "line 1: negative index -1"),
        ],
        ids=["duplicate", "negative"],
    )
    def test_bad_reference_row_names_its_line(self, pipeline, capsys, rows, message):
        reference = pipeline / "bad_row_reference.tsv"
        reference.write_text(rows, encoding="utf-8")
        code = main(
            [
                "tune",
                str(pipeline / "corpus"),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(reference),
                "--budget",
                "2",
                "--out",
                str(pipeline / "tuning_bad_row.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {reference}: {message}")


class TestBench:
    def test_one_row_per_size_engine(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--sizes", "8,24", "--out", str(out)])
        assert code == 0
        header, *rows = out.read_text(encoding="utf-8").splitlines()
        assert header == "size,engine,ms"
        keys = [tuple(row.split(",")[:2]) for row in rows]
        assert keys == [("8", "nw"), ("8", "astar"), ("24", "nw"), ("24", "astar")]
        assert all(float(row.split(",")[2]) >= 0.0 for row in rows)

    def test_demo_alignments_printed(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "16", "--out", str(tmp_path / "b.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "a, d, -, -, e, g, f" in out
        assert "a, d, a, d, e, g, f" in out
        assert "tablets, make, tablets, make, children, very, addicted" in out

    def test_rejects_bad_sizes(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--sizes", "0", "--out", str(tmp_path / "b.csv")])
        assert excinfo.value.code == 2

    def test_non_integer_size_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--sizes", "8,x", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "sizes must be positive integers" in capsys.readouterr().err
        assert not out.exists()

    def test_no_engine_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--engines", ",", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "engines must name at least one engine" in capsys.readouterr().err
        assert not out.exists()


class TestReproducibility:
    def test_rerun_produces_identical_primary_outputs(self, pipeline, tmp_path):
        for run_dir in ("run1", "run2"):
            target = tmp_path / run_dir
            target.mkdir()
            assert (
                main(
                    [
                        "mine",
                        str(pipeline / "corpus"),
                        str(pipeline / "model.json"),
                        str(pipeline / "lexicon.tsv"),
                        str(target / "mined.tsv"),
                    ]
                )
                == 0
            )
        assert (tmp_path / "run1" / "mined.tsv").read_bytes() == (
            tmp_path / "run2" / "mined.tsv"
        ).read_bytes()

    def test_manifest_contents(self, pipeline):
        manifest = json.loads(
            (pipeline / "mined.tsv.manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["command"] == "mine"
        assert manifest["tool_version"]
        assert manifest["wall_time_ms"] >= 0
        assert len(manifest["inputs"]) == 4
        for digest in manifest["inputs"].values():
            assert len(digest) == 64
