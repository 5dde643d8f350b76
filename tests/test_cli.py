import json
from pathlib import Path

import pytest

from srlcomb import cli
from srlcomb.calibrate import attach_probs
from srlcomb.cli import build_parser, main
from srlcomb.corpus_io import (
    PropsDocument,
    SyntheticConfig,
    emit_props,
    generate_synthetic,
    parse_props,
)
from srlcomb.infer_cs import CsConfig, sweep_bias
from srlcomb.learn import ScoreModel
from srlcomb.model import Candidate
from srlcomb.pool import align_gold, build_pool, dump_pool


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out), "--seed", "7", "--sentences", "40"]) == 0
    return out


def _system_args(d: Path, scores: bool = True) -> list:
    args = []
    for i in (1, 2, 3):
        spec = f"{d}/sys{i}.props"
        if scores:
            spec += f":{d}/sys{i}.scores"
        args += ["--system", spec]
    return args


class TestSynth:
    def test_outputs_exist(self, corpus_dir):
        for name in ["gold.props", "gold.synt", "sys1.props", "sys1.scores",
                     "sys3.props", "manifest.json"]:
            assert (corpus_dir / name).exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--seed", "7", "--sentences", "15"]) == 0
        assert main(["synth", "--out", str(b), "--seed", "7", "--sentences", "15"]) == 0
        for name in ["gold.props", "sys1.props", "sys2.scores"]:
            assert (a / name).read_text() == (b / name).read_text()


class TestPool:
    def test_stats_table(self, corpus_dir, capsys):
        rc = main(["pool", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "∩ of 3" in out and "∩ of 2" in out

    def test_single_system_stats(self, corpus_dir, capsys):
        rc = main(["pool", "--system", f"{corpus_dir}/sys1.props",
                   "--gold", f"{corpus_dir}/gold.props"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "M1" in out and "∩" not in out

    def test_dump_round_trip(self, corpus_dir, tmp_path):
        dump = tmp_path / "pool.json"
        rc = main(["pool", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props", "--dump", str(dump)])
        assert rc == 0
        doc = json.loads(dump.read_text())
        assert len(doc["sentences"]) == 40
        cands = [c for sent in doc["sentences"] for c in sent["candidates"]]
        assert cands and all(c["is_gold"] is not None and c["probs"] for c in cands)

    def test_dump_equals_the_staged_pool(self, corpus_dir, tmp_path):
        dump = tmp_path / "pool.json"
        assert main(["pool", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                     "--gamma", "0.5", "--dump", str(dump)]) == 0
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=7))
        pool = attach_probs(align_gold(build_pool(
            [(f"M{i + 1}", d, t) for i, (d, t) in enumerate(systems)]), gold), 0.5)
        assert dump.read_text() == dump_pool(pool)

    def test_format_error_exit_2(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.props"
        bad.write_text("- (A0*\n\n")
        assert main(["pool", "--system", str(bad)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["pool", "--system", "/nonexistent.props"]) == 2


class TestInfer:
    def test_cs_engine_scores(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "pred.props"
        rc = main(["infer", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--engine", "cs", "--constraints", "1+2",
                   "--scope", "pred", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert (tmp_path / "pred.props.manifest.json").exists()
        assert "PProps" in capsys.readouterr().out

    def test_cs_rejects_trained_scorer(self, corpus_dir, tmp_path):
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "cs",
                   "--scorer", "svm", "--out", str(tmp_path / "x.props")])
        assert rc == 2

    def test_deterministic_output(self, corpus_dir, tmp_path):
        a, b = tmp_path / "a.props", tmp_path / "b.props"
        base = ["infer", *_system_args(corpus_dir), "--engine", "dp",
                "--scope", "sentence"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_dp_with_trained_model(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.svm"
        rc = main(["train", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--scorer", "svm", "--out", str(model)])
        assert rc == 0
        out = tmp_path / "pred.props"
        rc = main(["infer", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--engine", "dp", "--scorer", "svm", "--scope", "pred",
                   "--model", str(model), "--out", str(out)])
        assert rc == 0

    def test_model_kind_mismatch_exit_3(self, corpus_dir, tmp_path):
        model = tmp_path / "m.svm"
        main(["train", *_system_args(corpus_dir),
              "--gold", f"{corpus_dir}/gold.props",
              "--scorer", "svm", "--out", str(model)])
        rc = main(["infer", *_system_args(corpus_dir),
                   "--engine", "dp", "--scorer", "perceptron-local",
                   "--model", str(model), "--out", str(tmp_path / "x.props")])
        assert rc == 3

    def test_timeout_exit_4(self, corpus_dir, tmp_path):
        rc = main(["infer", *_system_args(corpus_dir),
                   "--engine", "cs", "--node-budget", "2",
                   "--out", str(tmp_path / "x.props")])
        assert rc == 4

    @pytest.mark.parametrize("scope", ["pred", "sentence"])
    def test_dp_timeout_exit_4(self, corpus_dir, tmp_path, capsys, scope):
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scope", scope, "--node-budget", "1",
                   "--out", str(tmp_path / "x.props")])
        assert rc == 4
        assert "node budget 1 exhausted" in capsys.readouterr().err

    def test_unmatched_score_record_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "7", "--sentences", "60"]) == 0
        with open(corpus / "sys1.scores", "a", encoding="utf-8") as f:
            f.write("999 0 A0 0 1 5.0\n")
        capsys.readouterr()
        rc = main(["infer", *_system_args(corpus), "--engine", "cs",
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "M1" in err and "999 0 A0 0 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.props").exists()

    @pytest.mark.parametrize("engine", ["cs", "dp"])
    def test_probsum_rejects_model_exit_2(self, corpus_dir, tmp_path, capsys, engine):
        rc = main(["infer", *_system_args(corpus_dir), "--engine", engine, "--scorer", "probsum",
                   "--model", "/nonexistent.model", "--out", str(tmp_path / "x.props")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--model" in err and "Traceback" not in err
        assert not (tmp_path / "x.props").exists()

    def test_parallel_jobs_identical_output(self, corpus_dir, tmp_path):
        serial, parallel = tmp_path / "serial.props", tmp_path / "parallel.props"
        for engine in (["--engine", "cs"],
                       ["--engine", "dp", "--scorer", "probsum", "--scope", "pred"],
                       ["--engine", "dp", "--scorer", "probsum", "--scope", "sentence"]):
            base = ["infer", *_system_args(corpus_dir), *engine]
            assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
            assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
            assert serial.read_text() == parallel.read_text(), engine

    @pytest.mark.parametrize("option", [["--constraints", "1+2"], ["--trace"]])
    def test_dp_rejects_cs_only_options(self, corpus_dir, tmp_path, capsys, option):
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp", *option,
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert "engine=cs only" in capsys.readouterr().err
        assert not (tmp_path / "x.props").exists()

    def test_trace_prints_node_counts(self, corpus_dir, tmp_path, capsys):
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "cs",
                   "--trace", "--out", str(tmp_path / "t.props")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nodes total" in out

    def test_report_csv_written(self, corpus_dir, tmp_path):
        report = tmp_path / "report.csv"
        rc = main(["infer", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props", "--engine", "cs",
                   "--out", str(tmp_path / "p.props"), "--report", str(report)])
        assert rc == 0
        assert report.read_text().startswith("label,correct,predicted,gold")

    def test_corrupt_model_file_exit_2(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("SRLCOMB-MODEL v1\nkind svm\ntruncated")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(bad),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2

    def test_truncated_intervals_row_exit_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("intervals ")) + 1
        lines[row] = " ".join(lines[row].split()[:3])
        model.write_text("\n".join(lines) + "\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert f"line {row + 1}" in capsys.readouterr().err

    def test_unknown_model_label_exit_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        row = lines.index("label A0")
        lines[row] = "label ZZ"
        model.write_text("\n".join(lines) + "\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert f"line {row + 1}" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix,damaged", [
        ("bias ", "bias nan"),
        ("config ", "config ngram_cap=10 path_threshold=3 count_cap=5"),
        ("bias ", "bias x"),
        ("supports ", "supports x"),
        ("vocab ", "vocab -3"),
        ("degenerate ", "degenerate 1.5"),
        ("config ", "config groups=FS1 ngram_cap=11 path_threshold=3 count_cap=5"),
        ("config ", "config groups=FS1 ngram_cap=10 path_threshold=2 count_cap=5"),
        ("config ", "config groups=FS1 ngram_cap=10 path_threshold=3 count_cap=7"),
    ])
    def test_damaged_model_line_exit_2(self, corpus_dir, tmp_path, capsys, prefix, damaged):
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith(prefix))
        lines[row] = damaged
        model.write_text("\n".join(lines) + "\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert f"line {row + 1}" in capsys.readouterr().err

    def test_unordered_support_ids_exit_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("supports ") and l != "supports 0") + 1
        coef, tick, *ids = lines[row].split()
        lines[row] = " ".join([coef, tick, *ids[::-1]])
        model.write_text("\n".join(lines) + "\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert f"not strictly increasing at line {row + 1}" in capsys.readouterr().err

    def test_untrained_label_warns(self, corpus_dir, tmp_path, capsys):
        model_path, dump = tmp_path / "m.svm", tmp_path / "pool.json"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model_path)]) == 0
        model = ScoreModel.load(model_path)
        del model.scorers["A0"]
        model.save(model_path)
        assert main(["pool", *_system_args(corpus_dir), "--dump", str(dump)]) == 0
        n_a0 = sum(c["label"] == "A0" for sent in json.loads(dump.read_text())["sentences"]
                   for c in sent["candidates"])
        assert n_a0 > 0
        capsys.readouterr()
        assert main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                     "--scorer", "svm", "--model", str(model_path),
                     "--out", str(tmp_path / "x.props")]) == 0
        warnings = [l for l in capsys.readouterr().err.splitlines() if "no scorer" in l]
        assert warnings == [f"srlcomb: warning: model has no scorer for label A0; "
                            f"{n_a0} candidates scored 0.0"]

    def test_inference_leaves_model_vocabulary_alone(self, corpus_dir, tmp_path,
                                                     monkeypatch):
        model_path = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model_path)]) == 0
        n_vocab = int(next(l for l in model_path.read_text().splitlines()
                           if l.startswith("vocab "))[len("vocab "):])
        test_dir = tmp_path / "test"
        assert main(["synth", "--out", str(test_dir), "--seed", "8",
                     "--sentences", "20"]) == 0
        loaded = []
        real_load = ScoreModel.load.__func__

        def load(cls, path):
            loaded.append(real_load(cls, path))
            return loaded[-1]

        monkeypatch.setattr(ScoreModel, "load", classmethod(load))
        assert main(["infer", *_system_args(test_dir), "--gold", f"{test_dir}/gold.props",
                     "--engine", "dp", "--scorer", "svm", "--model", str(model_path),
                     "--out", str(tmp_path / "x.props")]) == 0
        assert len(loaded) == 1
        assert len(loaded[0].space) == n_vocab

    @pytest.mark.parametrize("argv", [
        ["infer", "--engine", "cs", "--constraints", "9"],
        ["infer", "--engine", "cs", "--scope", "pred", "--constraints", "1+2+5"],
        ["sweep", "--constraints", "9"],
    ])
    def test_bad_constraints_exit_2(self, corpus_dir, tmp_path, capsys, argv):
        rc = main([*argv, *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                   "--out", str(tmp_path / "x.out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("srlcomb: --constraints ")
        assert "Traceback" not in err
        assert not (tmp_path / "x.out").exists()


class TestBadInput:
    @pytest.mark.parametrize("argv,option", [
        (["train", "--scorer", "perceptron-global", "--epochs", "0"], "--epochs"),
        (["train", "--scorer", "perceptron-local", "--epochs", "-1"], "--epochs"),
        (["train", "--scorer", "svm", "--C", "0"], "--C"),
        (["infer", "--bootstrap", "5"], "--bootstrap"),
        (["infer", "--gamma", "nan"], "--gamma"),
        (["infer", "--bias", "nan"], "--bias"),
        (["train", "--scorer", "perceptron-global", "--val-fraction", "1.5"], "--val-fraction"),
        (["infer", "--node-budget", "-1"], "--node-budget"),
        (["sweep", "--o-values", "0.1,abc"], "--o-values"),
        (["synth", "--precision", "2"], "--precision"),
        (["infer", "--seed", "-1"], "--seed"),
        (["infer", "--jobs", "0"], "--jobs"),
    ], ids=["epochs-0", "epochs-negative", "C-0", "bootstrap-5", "gamma-nan", "bias-nan",
            "val-fraction-1.5", "node-budget-negative", "o-values-abc", "synth-precision-2",
            "seed-negative", "jobs-0"])
    def test_bad_numeric_option_exit_2(self, corpus_dir, tmp_path, capsys, argv, option):
        inputs = [] if argv[0] == "synth" else [*_system_args(corpus_dir),
                                                "--gold", f"{corpus_dir}/gold.props"]
        out = tmp_path / "x.out"
        rc = main([*argv, *inputs, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"srlcomb: {option} ")
        assert not out.exists()

    @pytest.fixture
    def empty_dir(self, tmp_path):
        for name in ("gold.props", "sys1.props"):
            (tmp_path / name).write_text("")
        return tmp_path

    def test_zero_sentences_infer(self, empty_dir, capsys):
        rc = main(["infer", "--gold", f"{empty_dir}/gold.props",
                   "--system", f"{empty_dir}/sys1.props", "--out", f"{empty_dir}/x.props"])
        assert rc == 0
        assert "F1 100.00 ±0.0" in capsys.readouterr().out

    @pytest.mark.parametrize("scorer", ["svm", "perceptron-local", "perceptron-global"])
    def test_zero_sentences_train_exit_2(self, empty_dir, capsys, scorer):
        rc = main(["train", "--gold", f"{empty_dir}/gold.props", "--scorer", scorer,
                   "--system", f"{empty_dir}/sys1.props", "--out", f"{empty_dir}/m"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("srlcomb: train: ")
        assert not (empty_dir / "m").exists()

    def test_one_sentence_global_perceptron_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "7", "--sentences", "1"]) == 0
        capsys.readouterr()
        rc = main(["train", *_system_args(corpus), "--gold", f"{corpus}/gold.props",
                   "--scorer", "perceptron-global", "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "at least 2 sentences" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_report_without_gold_exit_2(self, corpus_dir, tmp_path, capsys):
        rc = main(["infer", *_system_args(corpus_dir), "--out", str(tmp_path / "x.props"),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("srlcomb: --report needs --gold")
        assert not (tmp_path / "x.props").exists()

    def test_zero_sentences_curves_exit_2(self, empty_dir, capsys):
        rc = main(["curves", "--gold", f"{empty_dir}/gold.props",
                   "--system", f"{empty_dir}/sys1.props", "--out", f"{empty_dir}/c.csv"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("srlcomb: curves: ")
        assert not (empty_dir / "c.csv").exists()


class TestOnePassPool:
    """The subcommands build each pooled candidate once, gold flag and
    probabilities included, and report bad gold and score files as before."""

    def test_each_candidate_built_once(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "7", "--sentences", "1000"]) == 0
        built = []
        post_init = Candidate.__post_init__

        def counted(self):
            built.append(self.key)
            post_init(self)

        monkeypatch.setattr(Candidate, "__post_init__", counted)
        assert main(["infer", *_system_args(corpus), "--gold", f"{corpus}/gold.props",
                     "--bootstrap", "100", "--out", str(tmp_path / "x.props")]) == 0
        assert len(built) == len(set(built)) == 7282

    def test_systems_read_before_gold(self, corpus_dir, tmp_path, monkeypatch, capsys):
        read = []
        original = cli._read

        def recorded(path):
            read.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(cli, "_read", recorded)
        assert main(["infer", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                     "--bootstrap", "100", "--out", str(tmp_path / "x.props")]) == 0
        assert read == ["sys1.props", "sys1.scores", "sys2.props", "sys2.scores",
                        "sys3.props", "sys3.scores", "gold.props"]

    @pytest.fixture(scope="class")
    def damaged(self, tmp_path_factory):
        """A corpus and, by fault, the gold and first system that break it."""
        d = tmp_path_factory.mktemp("damaged")
        for name, seed in (("corpus", 7), ("other", 99)):
            assert main(["synth", "--out", str(d / name), "--seed", str(seed),
                         "--sentences", "40"]) == 0
        gold = parse_props((d / "corpus/gold.props").read_text())
        (d / "short.props").write_text(emit_props(PropsDocument(gold.sentences[:39])))
        scores = d / "extra.scores"
        scores.write_text((d / "corpus/sys1.scores").read_text() + "999 0 A0 0 1 5.0\n")
        corpus = d / "corpus"
        ok_sys1 = f"{corpus}/sys1.props:{corpus}/sys1.scores"
        return corpus, {
            "gold-skeleton": (f"{d}/other/gold.props", ok_sys1,
                              "sentence 0: skeletons differ"),
            "gold-count": (f"{d}/short.props", ok_sys1,
                           "sentence counts differ: pool 40 vs document 39"),
            "score-record": (f"{corpus}/gold.props", f"{corpus}/sys1.props:{scores}",
                             "system M1: score record 999 0 A0 0 1 names no argument "
                             "of its props"),
        }

    @pytest.mark.parametrize("fault", ["gold-skeleton", "gold-count", "score-record"])
    @pytest.mark.parametrize("command", [["infer"], ["train", "--scorer", "svm"], ["pool"]])
    def test_bad_input_exit_2(self, damaged, tmp_path, capsys, command, fault):
        corpus, faults = damaged
        gold, sys1, message = faults[fault]
        out = tmp_path / "out"
        output = ["--dump", str(out)] if command == ["pool"] else ["--out", str(out)]
        capsys.readouterr()
        rc = main([*command, "--system", sys1, *_system_args(corpus)[2:],
                   "--gold", gold, *output])
        assert rc == 2
        assert capsys.readouterr().err == f"srlcomb: {message}\n"
        assert not out.exists()


class TestTrain:
    def test_global_perceptron_with_features_subset(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.gp"
        rc = main(["train", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--scorer", "perceptron-global", "--scope", "sentence",
                   "--features", "FS1-FS3", "--epochs", "2",
                   "--out", str(model)])
        assert rc == 0
        text = model.read_text()
        assert text.startswith("SRLCOMB-MODEL v1")
        assert "groups=FS1,FS2,FS3" in text
        assert "epoch F1" in capsys.readouterr().out
        rc = main(["infer", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--engine", "dp", "--scorer", "perceptron-global",
                   "--scope", "sentence", "--model", str(model),
                   "--out", str(tmp_path / "gp.props")])
        assert rc == 0

    @pytest.mark.parametrize("scorer", ["svm", "perceptron-global"])
    def test_degree_below_one_exit_2(self, corpus_dir, tmp_path, capsys, scorer):
        rc = main(["train", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                   "--scorer", scorer, "--degree", "0", "--out", str(tmp_path / "m")])
        assert rc == 2
        assert "--degree must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_syntax_file_accepted(self, corpus_dir, tmp_path):
        model = tmp_path / "m.svm"
        rc = main(["train", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--syntax", f"{corpus_dir}/gold.synt",
                   "--scorer", "svm", "--out", str(model)])
        assert rc == 0


class TestSweepAndCurves:
    def test_sweep_default_grid(self, corpus_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "O,precision,recall,f1"
        assert len(lines) == 22
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=7))
        pool = attach_probs(align_gold(build_pool(
            [(f"M{i + 1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
        assert out.read_text() == sweep_bias(pool, gold, CsConfig()).csv()

    def test_sweep_explicit_grid(self, corpus_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--o-values", "0,0.5,2.0", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_curves(self, corpus_dir, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["curves", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rejection_pct,accuracy"
        assert len(lines) == 21


class TestOracleCmd:
    def test_blocks_present(self, corpus_dir, capsys):
        rc = main(["oracle", *_system_args(corpus_dir, scores=False),
                   "--gold", f"{corpus_dir}/gold.props"])
        assert rc == 0
        out = capsys.readouterr().out
        for block in ["== Combination", "== Re-Ranking",
                      "== Baseline recall", "== Baseline precision"]:
            assert block in out

    def test_score_sidecars_never_read(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "7", "--sentences", "60"]) == 0
        with open(corpus / "sys1.scores", "a", encoding="utf-8") as f:
            f.write("999 0 A0 0 1 5.0\n")
        gold = ["--gold", f"{corpus}/gold.props"]
        capsys.readouterr()
        assert main(["oracle", *_system_args(corpus, scores=False), *gold,
                     "--out", str(tmp_path / "props_only.txt")]) == 0
        props_only = capsys.readouterr().out
        assert main(["oracle", *_system_args(corpus), *gold,
                     "--out", str(tmp_path / "with_scores.txt")]) == 0
        assert capsys.readouterr().out == props_only
        assert ((tmp_path / "with_scores.txt").read_text()
                == (tmp_path / "props_only.txt").read_text())


class TestOptions:
    def test_option_count(self):
        sub = {a.dest: a for a in build_parser()._actions}["command"]
        counted = [opt for p in sub.choices.values() for a in p._actions
                   for opt in a.option_strings[:1] if opt != "-h"]
        assert len(counted) == 60

    @pytest.mark.parametrize("command,option", [
        ("pool", "--syntax"), ("pool", "--seed"), ("pool", "--jobs"),
        ("train", "--seed"),
        ("sweep", "--syntax"), ("sweep", "--seed"), ("sweep", "--jobs"), ("sweep", "--bias"),
        ("curves", "--syntax"), ("curves", "--seed"), ("curves", "--jobs"),
        ("oracle", "--syntax"), ("oracle", "--gamma"), ("oracle", "--seed"),
        ("oracle", "--jobs"),
    ])
    def test_unread_option_rejected(self, corpus_dir, tmp_path, command, option):
        argv = [command, *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props"]
        argv += {"pool": [], "train": ["--scorer", "svm"]}.get(command, [])
        if command != "pool":
            argv += ["--out", str(tmp_path / "x.out")]
        assert main(argv) == 0
        value = f"{corpus_dir}/gold.synt" if option == "--syntax" else "1"
        with pytest.raises(SystemExit) as exit_:
            main(argv + [option, value])
        assert exit_.value.code == 2


class TestHelpDefaults:
    def test_parser_defaults_match_shipped_constants(self):
        parser = build_parser()
        sub = {a.dest: a for a in parser._actions}["command"]
        infer = sub.choices["infer"]
        assert infer.get_default("gamma") == 0.1
        assert infer.get_default("bias") == 0.30
        assert infer.get_default("bootstrap") == 1000
        train = sub.choices["train"]
        assert train.get_default("degree") == 2
        assert train.get_default("epochs") == 5
        assert train.get_default("C") == 1.0

    def test_help_lists_defaults(self):
        parser = build_parser()
        sub = {a.dest: a for a in parser._actions}["command"]
        infer_help = " ".join(sub.choices["infer"].format_help().split())
        assert "default: 0.1" in infer_help
        assert "default: 0.3" in infer_help
        assert "default: 1000" in infer_help
        train_help = " ".join(sub.choices["train"].format_help().split())
        assert "default: 5" in train_help
        assert "default: 2" in train_help

    def test_manifest_contents(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 7
        assert "version" in manifest
