"""End-to-end command-line flows over a small synthetic corpus."""

import builtins
import hashlib
import json
import shlex
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from bimine.cli import build_parser, main
from bimine.corpus import load_corpus, read_parallel

from conftest import build_corpus_files
from oracles import reference_mine_pair


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

    def test_language_with_tab_is_an_error(self, tmp_path, capsys):
        # pairs.tsv stores the language unescaped; a tab would split its
        # row.  The option is named before any file is read: none exists.
        for option in ("--source-lang", "--target-lang"):
            langs = {"--source-lang": "eo", "--target-lang": "pl", option: "x\ty"}
            with pytest.raises(SystemExit) as excinfo:
                main(
                    [
                        "ingest",
                        str(tmp_path / "s.tsv"),
                        str(tmp_path / "t.tsv"),
                        str(tmp_path / "l.tsv"),
                        str(tmp_path / "corpus"),
                        *(item for pair in langs.items() for item in pair),
                    ]
                )
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.endswith(f"error: {option} 'x\\ty' contains a tab or line break\n")
        # A pair needs two languages, each named.
        for source_lang, target_lang, message in (
            ("en", "en", "--source-lang and --target-lang are both 'en'"),
            ("", "pl", "--source-lang is empty"),
            (" ", "pl", "--source-lang is empty"),
            ("eo", "", "--target-lang is empty"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    [
                        "ingest",
                        str(tmp_path / "s.tsv"),
                        str(tmp_path / "t.tsv"),
                        str(tmp_path / "l.tsv"),
                        str(tmp_path / "corpus"),
                        f"--source-lang={source_lang}",
                        f"--target-lang={target_lang}",
                    ]
                )
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not (tmp_path / "corpus").exists()

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

    def test_one_usable_pair_names_its_file(self, tmp_path, pipeline, capsys):
        lines = (pipeline / "parallel.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        parallel = tmp_path / "one.tsv"
        parallel.write_text("".join(lines[:1] + ["!!!\tle chien\n"]), encoding="utf-8")
        lexicon = str(pipeline / "lexicon.tsv")
        assert main(["train", str(parallel), lexicon, str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == (
            "skipped 1 untokenizable training pairs\n"
            f"error: {parallel}: need at least 2 training pairs, got 1\n"
        )
        assert not (tmp_path / "m.json").exists()

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

    def test_each_distinct_training_sentence_tokenized_once(self, tmp_path, pipeline, monkeypatch):
        import bimine

        calls = []
        real = bimine.text.tokenize

        def counting(sentence):
            calls.append(sentence)
            return real(sentence)

        for name in ("cli", "classifier", "corpus", "lexicon", "text"):
            module = getattr(bimine, name)
            if getattr(module, "tokenize", None) is real:
                monkeypatch.setattr(module, "tokenize", counting)
        # A repeated pair and an untokenizable one among the pipeline's.
        lines = (pipeline / "parallel.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        parallel = tmp_path / "parallel.tsv"
        parallel.write_text("".join(lines + lines[:2] + ["!!!\tle chien\n"]), encoding="utf-8")
        lexicon = str(pipeline / "lexicon.tsv")
        assert main(["train", str(parallel), lexicon, str(tmp_path / "m.json")]) == 0
        # Negatives reuse the positives' sentences, and the accuracy pass
        # reuses the features.
        pairs = read_parallel(parallel)
        assert sorted(calls) == sorted({sentence for pair in pairs for sentence in pair})

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
        for engine in ("nw", "nw-wavefront"):
            assert self.run_mine(pipeline, f"mined_{engine}.tsv", "--engine", engine) == 0
        nw = (pipeline / "mined_nw.tsv").read_bytes()
        assert nw == (pipeline / "mined_nw-wavefront.tsv").read_bytes()

    def test_sentence_rows_without_a_pair_row_are_an_error(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("pairs.tsv", "sentences.tsv"):
            (corpus / name).write_bytes((pipeline / "corpus" / name).read_bytes())
        lines = (corpus / "sentences.tsv").read_text(encoding="utf-8").count("\n")
        with open(corpus / "sentences.tsv", "a", encoding="utf-8") as handle:
            handle.write("Orphan\tsrc\t0\tZ.\n")
        out = tmp_path / "mined.tsv"
        code = main(
            [
                "mine",
                str(corpus),
                str(pipeline / "model.json"),
                str(pipeline / "lexicon.tsv"),
                str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {corpus / 'sentences.tsv'}: line {lines + 1}: topic 'Orphan' has no pair row\n"
        )
        assert not out.exists()

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

    def test_boolean_in_model_is_an_error(self, pipeline, tmp_path, capsys):
        data = json.loads((pipeline / "model.json").read_text(encoding="utf-8"))
        data["bias"] = True
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
        assert capsys.readouterr().err == f"error: {bad_model}: bias is missing or not numeric\n"
        assert not (tmp_path / "mined.tsv").exists()

    def test_duplicate_topic_row_is_an_error(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rows = (pipeline / "corpus" / "pairs.tsv").read_text(encoding="utf-8").splitlines()
        topic = rows[0].split("\t")[0]
        (corpus / "pairs.tsv").write_text("\n".join(rows + [rows[0]]) + "\n", encoding="utf-8")
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
        assert capsys.readouterr().err == (
            f"error: {corpus / 'pairs.tsv'}: line {len(rows) + 1}: "
            f"duplicate topic {topic!r} (first on line 1)\n"
        )
        assert not (tmp_path / "mined.tsv").exists()

    @pytest.mark.parametrize("option", ["--gap-penalty", "--match-bonus", "--mismatch-cost"])
    def test_non_finite_parameter_is_an_error(self, pipeline, capsys, option):
        assert self.run_mine(pipeline, "mined_nan.tsv", option, "nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert not (pipeline / "mined_nan.tsv").exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--threshold", "1.5", "threshold must lie in [0, 1]"),
            ("--gap-penalty", "nan", "gap_penalty must be finite, got nan"),
            ("--gap-penalty", "-1", "gap penalty must be >= 0"),
        ],
    )
    def test_bad_parameter_is_reported_before_any_input(
        self, tmp_path, capsys, option, value, message
    ):
        missing = tmp_path / "missing"
        out = tmp_path / "mined.tsv"
        args = [str(missing / "corpus"), str(missing / "m.json"), str(missing / "l.tsv"), str(out)]
        assert main(["mine", *args, option, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
        from bimine.align import MiningConfig
        from bimine.classifier import load_model
        from bimine.lexicon import read_lexicon

        pairs = load_corpus(pipeline / "corpus")
        model = load_model(pipeline / "model.json")
        lexicon = read_lexicon(pipeline / "lexicon.tsv")
        lines = []
        for pair in pairs:
            mined = reference_mine_pair(model, lexicon, pair, MiningConfig(threshold=threshold))
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

    def test_engines_agree(self, pipeline):
        self.make_reference(pipeline)
        names = ("corpus", "model.json", "lexicon.tsv", "reference.tsv")
        args = ["tune", *(str(pipeline / name) for name in names), "--budget", "20"]
        for engine in ("nw", "nw-wavefront"):
            out = str(pipeline / f"tuning_{engine}.json")
            assert main([*args, "--engine", engine, "--out", out]) == 0
        nw = (pipeline / "tuning_nw.json").read_bytes()
        assert nw == (pipeline / "tuning_nw-wavefront.json").read_bytes()

    @pytest.mark.parametrize("rows", ["", "\n\n"], ids=["empty", "blank-lines"])
    def test_reference_without_rows_names_its_path(self, pipeline, capsys, rows):
        reference = pipeline / "empty_reference.tsv"
        reference.write_text(rows, encoding="utf-8")
        out = pipeline / "tuning_empty.json"
        args = [str(pipeline / name) for name in ("corpus", "model.json", "lexicon.tsv")]
        assert main(["tune", *args, str(reference), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {reference}: no reference rows\n"
        assert not out.exists()

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
            (
                "Topic 0\t0\t0\nNoSuchTopic\t1\t1\nNoSuchTopic\t0\t0\n",
                "line 2: reference names unknown topic_id 'NoSuchTopic'\n",
            ),
            (
                "Topic 1\t0\t0\nTopic 1\t99\t1\n",
                "line 2: Topic 1: reference source index 99 out of range\n",
            ),
            (
                "Topic 1\t4\t6\nTopic 1\t0\t0\n",
                "line 1: Topic 1: reference target index 6 out of range\n",
            ),
            # Sorted, the rows read (0, 0) (1, 3) (2, 2): line 1 breaks the order.
            (
                "Topic 2\t2\t2\nTopic 2\t1\t3\nTopic 2\t0\t0\n",
                "line 1: Topic 2: reference pairs must be monotone\n",
            ),
        ],
        ids=["duplicate", "negative", "unknown-topic", "source-range", "target-range", "monotone"],
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

    def test_untokenizable_sample_names_its_pair(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline / "corpus", corpus)
        sentences = corpus / "sentences.tsv"
        # The first source sentence of a sample, made one without tokens.
        rows = [
            "Topic 1\tsrc\t0\t!!!" if row.startswith("Topic 1\tsrc\t0\t") else row
            for row in sentences.read_text(encoding="utf-8").splitlines()
        ]
        sentences.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
        reference = tmp_path / "reference.tsv"
        reference.write_text("Topic 1\t0\t0\n", encoding="utf-8")
        out = tmp_path / "tuning.json"
        inputs = [str(pipeline / name) for name in ("model.json", "lexicon.tsv")]
        assert main(["tune", str(corpus), *inputs, str(reference), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: pair Topic 1: source sentence 0: untokenizable sentence: '!!!'\n"
        )
        assert not out.exists()


class TestEngineFlag:
    """``mine`` and ``tune`` align by dynamic programming only; A* is
    timed by ``bench``."""

    @pytest.mark.parametrize("engine", ["astar", "astar-unconstrained"])
    @pytest.mark.parametrize("command", ["mine", "tune"])
    def test_astar_is_a_usage_error(self, tmp_path, capsys, command, engine):
        out = tmp_path / "out"
        inputs = [str(tmp_path / name) for name in ("corpus", "m.json", "l.tsv")]
        if command == "mine":
            argv = ["mine", *inputs, str(out)]
        else:
            argv = ["tune", *inputs, str(tmp_path / "ref.tsv"), "--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--engine", engine])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{engine}'" in capsys.readouterr().err
        assert not out.exists()


class TestSeed:
    @pytest.mark.parametrize("command", ["train", "tune", "bench", "mine"])
    def test_negative_seed_is_a_usage_error(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "out"
        inputs = {
            "train": ["parallel.tsv", "lexicon.tsv"],
            "tune": ["corpus", "model.json", "lexicon.tsv", "reference.tsv"],
            "bench": [],
            "mine": ["corpus", "model.json", "lexicon.tsv"],
        }[command]
        argv = [command, *(str(pipeline / name) for name in inputs)]
        argv += [str(out)] if command in ("train", "mine") else ["--out", str(out)]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--seed", "-1"])
        assert excinfo.value.code == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_readme_pipeline_commands_parse():
    # Every ``bimine`` line of the README's Pipeline block, with its
    # backslash continuations, is accepted by the parser.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Pipeline", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("bimine ")]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == {
        "ingest", "dict", "train", "tune", "mine", "stats", "bench"
    }


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

    def test_unknown_engine_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--engines", "nw,bogus", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "unknown engine 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_wavefront_alias_and_astar_rows(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        argv = ["bench", "--engines", "nw-wavefront,astar", "--sizes", "8", "--out", str(out)]
        assert main(argv) == 0
        _, *rows = out.read_text(encoding="utf-8").splitlines()
        assert [tuple(row.split(",")[:2]) for row in rows] == [("8", "nw-wavefront"), ("8", "astar")]


def digests(paths) -> dict[str, str]:
    return {str(path): hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}


def manifest_case(case: str, root: Path, out: Path) -> tuple[list[str], Path, list[str]]:
    """``(argv, manifest path, input paths)`` of one command run on the
    pipeline's files in ``root``, writing into ``out``; ``tune`` reads
    ``out/reference.tsv`` and ``stats`` reads ``out/bitext.tsv``."""
    docs = [str(root / name) for name in ("source_docs.tsv", "target_docs.tsv", "links.tsv")]
    parallel, lexicon, model = (str(root / name) for name in ("parallel.tsv", "lexicon.tsv", "model.json"))
    corpus = [str(root / "corpus" / name) for name in ("pairs.tsv", "sentences.tsv")]
    reference, bitext = str(out / "reference.tsv"), str(out / "bitext.tsv")
    return {
        "ingest": (
            ["ingest", *docs, str(out / "corpus"), "--source-lang", "eo", "--target-lang", "en"],
            out / "corpus" / "manifest.json",
            docs,
        ),
        "dict": (["dict", parallel, str(out / "l.tsv")], out / "l.tsv.manifest.json", [parallel]),
        "dict --titles": (
            ["dict", parallel, str(out / "l.tsv"), "--titles", docs[2]],
            out / "l.tsv.manifest.json",
            [parallel, docs[2]],
        ),
        "train": (
            ["train", parallel, lexicon, str(out / "m.json"), "--epochs", "10"],
            out / "m.json.manifest.json",
            [parallel, lexicon],
        ),
        "tune": (
            ["tune", str(root / "corpus"), model, lexicon, reference, "--budget", "5",
             "--out", str(out / "t.json")],
            out / "t.json.manifest.json",
            [*corpus, model, lexicon, reference],
        ),
        "mine": (
            ["mine", str(root / "corpus"), model, lexicon, str(out / "mined.tsv")],
            out / "mined.tsv.manifest.json",
            [*corpus, model, lexicon],
        ),
        "stats": (
            ["stats", bitext, "--manifest-out", str(out / "s.json")], out / "s.json", [bitext]
        ),
        "bench": (["bench", "--sizes", "8", "--out", str(out / "b.csv")], out / "b.csv.manifest.json", []),
    }[case]


class TestManifest:
    """``main`` writes every command's run manifest, once the command has
    returned."""

    @pytest.mark.parametrize(
        "case", ["ingest", "dict", "dict --titles", "train", "tune", "mine", "stats", "bench"]
    )
    def test_names_the_command_and_digests_its_inputs(self, pipeline, tmp_path, monkeypatch, case):
        import bimine.cli

        (tmp_path / "reference.tsv").write_text("Topic 0\t0\t0\nTopic 1\t1\t1\n", encoding="utf-8")
        (tmp_path / "bitext.tsv").write_text("0.9000\tdomo\thouse\n", encoding="utf-8")
        argv, manifest_path, inputs = manifest_case(case, pipeline, tmp_path)
        events = []
        real_write = bimine.cli.write_manifest

        def slow_print(*args, **kwargs):
            time.sleep(0.05)
            builtins.print(*args, **kwargs)
            events.append("print")

        def recorded_write(*args):
            events.append("manifest")
            real_write(*args)

        monkeypatch.setattr(bimine.cli, "print", slow_print, raising=False)
        monkeypatch.setattr(bimine.cli, "write_manifest", recorded_write)
        assert main(argv) == 0
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert manifest["command"] == argv[0]
        assert manifest["inputs"] == digests(inputs)
        # Written once, after the command's last print, whose time it covers.
        assert events.count("manifest") == 1 and events[-1] == "manifest"
        assert manifest["wall_time_ms"] >= 50 * events.count("print") > 0

    def test_command_that_raises_writes_none(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        lexicon = str(pipeline / "lexicon.tsv")
        assert main(["train", str(empty), lexicon, str(tmp_path / "m.json")]) == 1
        missing = str(tmp_path / "missing.tsv")
        assert main(["stats", missing, "--manifest-out", str(tmp_path / "s.json")]) == 1
        with pytest.raises(SystemExit):
            main(["bench", "--sizes", "8,x", "--out", str(tmp_path / "b.csv")])
        assert [path.name for path in tmp_path.iterdir()] == ["empty.tsv"]

    def test_mine_with_a_failing_pair_writes_one_and_exits_1(self, pipeline, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(pipeline / "corpus", corpus)
        sentences = corpus / "sentences.tsv"
        rows = [
            "Topic 1\tsrc\t0\t!!!" if row.startswith("Topic 1\tsrc\t0\t") else row
            for row in sentences.read_text(encoding="utf-8").splitlines()
        ]
        sentences.write_text("".join(f"{row}\n" for row in rows), encoding="utf-8")
        model, lexicon = str(pipeline / "model.json"), str(pipeline / "lexicon.tsv")
        assert main(["mine", str(corpus), model, lexicon, str(tmp_path / "mined.tsv")]) == 1
        assert capsys.readouterr().err.endswith("\n1 document pairs failed\n")
        manifest = json.loads((tmp_path / "mined.tsv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "mine"
        corpus_files = [corpus / "pairs.tsv", sentences]
        assert manifest["inputs"] == digests([*corpus_files, model, lexicon])


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
