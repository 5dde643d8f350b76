import gc
import itertools
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from srlcomb import cli
from srlcomb.calibrate import attach_probs
from srlcomb.cli import build_parser, main
from srlcomb.corpus_io import (
    PropsDocument,
    PropsSentence,
    SyntheticConfig,
    emit_props,
    generate_synthetic,
    parse_props,
)
from srlcomb.features import FeatureExtractor
from srlcomb.evaluate import score
from srlcomb.infer_cs import DEFAULT_O_GRID, CsConfig, sweep_bias
from srlcomb.learn import ScoreModel
from srlcomb.model import Candidate, ConstraintSet
from srlcomb.pool import align_gold, build_pool, dump_pool


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--out", str(out), "--seed", "7", "--sentences", "40"]) == 0
    return out


@pytest.fixture(scope="module")
def fs2_svm_model(corpus_dir, tmp_path_factory):
    """An SVM that sees only same-predicate overlaps (FS2), so that it rates
    conflicting candidates of corpus_dir above 0 and decoding must search."""
    path = tmp_path_factory.mktemp("svm") / "m.svm"
    assert main(["train", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                 "--scorer", "svm", "--features", "FS2", "--out", str(path)]) == 0
    return path


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

    def test_score_sidecars_read_only_for_dump(self, tmp_path, capsys):
        # the agreement table reads no probability, so a damaged sidecar
        # matters only to --dump
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "7", "--sentences", "20"]) == 0
        with open(corpus / "sys1.scores", "a", encoding="utf-8") as f:
            f.write("999 0 A0 0 1 5.0\n")
        gold = ["--gold", f"{corpus}/gold.props"]
        capsys.readouterr()
        assert main(["pool", *_system_args(corpus), *gold]) == 0
        out = capsys.readouterr().out
        assert "pool: 20 sentences" in out and "∩ of 3" in out
        dump = tmp_path / "pool.json"
        assert main(["pool", *_system_args(corpus), *gold, "--dump", str(dump)]) == 2
        assert "999 0 A0 0 1" in capsys.readouterr().err
        assert not dump.exists()

    def test_missing_file_exit_2(self):
        assert main(["pool", "--system", "/nonexistent.props"]) == 2

    def test_system_path_with_equals_sign(self, corpus_dir, tmp_path, capsys):
        """An '=' after a '/' belongs to the path: `x=y/sys1.props` in a
        directory is no NAME=PROPS, with or without a name before it."""
        odd = tmp_path / "x=y"
        odd.mkdir()
        for name in ("sys1.props", "sys1.scores", "sys2.props", "sys2.scores",
                     "sys3.props", "sys3.scores"):
            shutil.copy(corpus_dir / name, odd / name)
        gold = ["--gold", f"{corpus_dir}/gold.props"]
        named = _system_args(odd)
        named[1] = f"N1={named[1]}"
        runs = {"plain": _system_args(corpus_dir), "odd": _system_args(odd), "named": named}
        for systems in runs.values():
            assert main(["pool", *systems, *gold]) == 0
        out = capsys.readouterr().out
        assert out.count("3 systems (M1, M2, M3)") == 2 and "3 systems (N1, M2, M3)" in out
        for run, systems in runs.items():
            assert main(["infer", *systems, *gold, "--out", str(tmp_path / f"{run}.props")]) == 0
        assert len({(tmp_path / f"{run}.props").read_text() for run in runs}) == 1

    def test_files_keep_their_line_ends(self, corpus_dir, tmp_path, capsys):
        """Files reach the parsers as written: CRLF reads as LF, and a lone
        "\\r" is whitespace inside its line, not a line end."""
        crlf = tmp_path / "crlf"
        crlf.mkdir()
        for i in (1, 2, 3):
            for name in (f"sys{i}.props", f"sys{i}.scores"):
                (crlf / name).write_bytes((corpus_dir / name).read_bytes().replace(b"\n", b"\r\n"))
        gold = ["--gold", f"{corpus_dir}/gold.props"]
        dumps = []
        for d in (corpus_dir, crlf):
            assert main(["pool", *_system_args(d), *gold, "--dump", str(tmp_path / "p.json")]) == 0
            dumps.append((tmp_path / "p.json").read_text())
        assert dumps[0] == dumps[1]
        first, rest = (corpus_dir / "sys1.scores").read_text().split("\n", 1)
        lone = tmp_path / "lone.scores"
        lone.write_text(f"{first}\r{rest}")
        capsys.readouterr()
        assert main(["pool", "--system", f"{corpus_dir}/sys1.props:{lone}", *gold,
                     "--dump", str(tmp_path / "x.json")]) == 2
        assert "line 1: expected 6 fields, found 12" in capsys.readouterr().err


class TestInfer:
    def test_cs_engine_scores(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "pred.props"
        rc = main(["infer", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--engine", "cs", "--constraints", "1+2", "--out", str(out)])
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
        base = ["infer", *_system_args(corpus_dir), "--engine", "cs",
                "--constraints", "1+2+5"]
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

    def test_model_kind_mismatch_exit_3(self, corpus_dir, tmp_path, monkeypatch):
        """The kind is compared as soon as the model loads: the syntax file
        is not read and no feature is extracted."""
        model = tmp_path / "m.svm"
        main(["train", *_system_args(corpus_dir),
              "--gold", f"{corpus_dir}/gold.props",
              "--scorer", "svm", "--out", str(model)])
        extracted = []
        monkeypatch.setattr(FeatureExtractor, "extract_pool",
                            lambda *args, **kwargs: extracted.append(args))
        rc = main(["infer", *_system_args(corpus_dir), "--syntax", str(tmp_path / "missing.synt"),
                   "--engine", "dp", "--scorer", "perceptron-local",
                   "--model", str(model), "--out", str(tmp_path / "x.props")])
        assert rc == 3
        assert extracted == []

    def test_timeout_exit_4(self, corpus_dir, tmp_path):
        rc = main(["infer", *_system_args(corpus_dir),
                   "--engine", "cs", "--node-budget", "2",
                   "--out", str(tmp_path / "x.props")])
        assert rc == 4

    @pytest.mark.parametrize("scope", ["pred", "sentence"])
    def test_dp_timeout_exit_4(self, corpus_dir, fs2_svm_model, tmp_path, capsys, scope):
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp", "--scorer", "svm",
                   "--model", str(fs2_svm_model), "--scope", scope, "--node-budget", "1",
                   "--out", str(tmp_path / "x.props")])
        assert rc == 4
        assert "node budget 1 exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma,score", [("1e308", None), ("2", "1e308"), ("2", "-1e308")])
    def test_overflowing_gamma_times_score_exit_0(self, tmp_path, capsys, gamma, score):
        # gamma * score overflows to +-inf; its probability is the softmax limit
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "7", "--sentences", "20"]) == 0
        if score is not None:
            lines = (corpus / "sys1.scores").read_text(encoding="utf-8").splitlines()
            lines[0] = " ".join(lines[0].split()[:-1] + [score])
            (corpus / "sys1.scores").write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus), "--gold", f"{corpus}/gold.props",
                     "--scorer", "svm", "--gamma", gamma, "--out", str(model)]) == 0
        for engine in (["cs"], ["dp", "--scorer", "svm", "--model", str(model)]):
            out = tmp_path / f"{engine[0]}.props"
            assert main(["infer", *_system_args(corpus), "--engine", *engine,
                         "--gamma", gamma, "--out", str(out)]) == 0
            assert out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_model_scores_exit_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        supports = 0
        for row, line in enumerate(lines):    # every coefficient finite but huge
            if supports:
                lines[row] = " ".join(["1e308"] + line.split()[1:])
                supports -= 1
            elif line.startswith("supports "):
                supports = int(line.split()[1])
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp", "--scorer", "svm",
                   "--model", str(model), "--out", str(tmp_path / "x.props")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"srlcomb: {model}: model label ") and "Traceback" not in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "x.props").exists()

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
        if engine == "dp":      # dp decodes only a trained scorer; cs decodes probsum
            assert "--engine cs --constraints 1+2 (--scope pred) or 1+2+5" in err
        assert not (tmp_path / "x.props").exists()

    @pytest.mark.parametrize("option", [["--constraints", "1+2"], ["--trace"]])
    def test_dp_rejects_cs_only_options(self, corpus_dir, tmp_path, capsys, option):
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp", *option,
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert capsys.readouterr().err == f"srlcomb: {option[0]} does nothing with --engine dp\n"
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
        ("degree ", "degree -4"),
        ("degree ", "degree 0"),
        ("M1 A1 ", "M1 A1 0.8 0.7 0.8 0.9 ok"),
        ("M1 A1 ", "M1 A0 0.3 0.8 0.85 0.88 ok"),
        ("M1 A1 ", "M1 A1 0.6 0.7 0.8 0.9 okay"),
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

    @pytest.mark.parametrize("what", ["tick", "degenerate"])
    def test_damaged_global_model_exit_2(self, corpus_dir, tmp_path, capsys, what):
        """A support tick past the label's update count flips the sign of its
        averaged weight, and a degenerate flag is 0 or 1: either exits 2."""
        model = tmp_path / "m.gp"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "perceptron-global", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        head = next(i for i, l in enumerate(lines)
                    if l.startswith("updates ") and lines[i + 2] != "supports 0")
        if what == "tick":
            row = head + 3
            coef, _tick, *ids = lines[row].split()
            lines[row] = " ".join([coef, "999999", *ids])
        else:
            row = head + 1
            lines[row] = "degenerate 7"
        model.write_text("\n".join(lines) + "\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "perceptron-global", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"srlcomb: {model}: model file: ")
        assert err.endswith(f" at line {row + 1}\n") and "Traceback" not in err
        assert not (tmp_path / "x.props").exists()

    @pytest.mark.parametrize("damaged", ["degree 0", "degree 3"])
    def test_label_degree_other_than_models_exit_2(self, corpus_dir, tmp_path, capsys,
                                                   damaged):
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        row = lines.index("label A0") + 1
        assert lines[row] == "degree 2"
        lines[row] = damaged
        model.write_text("\n".join(lines) + "\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert f"label A0 has a degree other than the model's 2 at line {row + 1}" in (
            capsys.readouterr().err)

    def test_overflowing_model_degree_exit_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.pl"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "perceptron-local", "--out", str(model)]) == 0
        model.write_text(model.read_text().replace("\ndegree 2\n", "\ndegree 300\n"))
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "perceptron-local", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"srlcomb: {model}: model degree 300 is too large for a vector of ")
        assert "features" in err
        assert not (tmp_path / "x.props").exists()

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

    def test_repeated_vocabulary_name_exit_2(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.svm"
        assert main(["train", *_system_args(corpus_dir),
                     "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("vocab ")) + 1
        lines[row + 1] = "1\t" + lines[row].split("\t", 1)[1]
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(model),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"srlcomb: {model}: model file: vocabulary at lines ")
        assert err.count(str(model)) == err.count("model file") == 1
        assert f"line {row + 2} repeats feature " in err
        assert not (tmp_path / "x.props").exists()

    def test_not_a_model_file_names_path_once(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "m.svm"
        bad.write_text("kind svm\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp",
                   "--scorer", "svm", "--model", str(bad),
                   "--out", str(tmp_path / "x.props")])
        assert rc == 2
        assert capsys.readouterr().err == f"srlcomb: {bad}: not a model file\n"

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
        assert len(loaded[0].extractor.space) == n_vocab

    @pytest.mark.parametrize("argv", [
        ["infer", "--engine", "cs", "--constraints", "9"],
        ["sweep", "--constraints", "1+3:soft=1e999"],
        ["infer", "--engine", "cs", "--constraints", "1+3:soft=1e999"],
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
        (["train", "--scorer", "svm", "--C", "1e-13"], "--C"),
        (["infer", "--bootstrap", "5"], "--bootstrap"),
        (["infer", "--gamma", "nan"], "--gamma"),
        (["infer", "--gamma", "0"], "--gamma"),
        (["infer", "--gamma", "-1"], "--gamma"),
        (["infer", "--bias", "nan"], "--bias"),
        (["train", "--scorer", "perceptron-global", "--val-fraction", "1.5"], "--val-fraction"),
        (["infer", "--node-budget", "-1"], "--node-budget"),
        (["sweep", "--o-values", "0.1,abc"], "--o-values"),
        (["sweep", "--o-values", ""], "--o-values"),
        (["synth", "--precision", "2"], "--precision"),
        (["infer", "--seed", "-1"], "--seed"),
        (["infer", "--jobs", "0"], "--jobs"),
    ], ids=["epochs-0", "epochs-negative", "C-0", "C-below-bound-tolerance", "bootstrap-5", "gamma-nan", "gamma-0",
            "gamma-negative", "bias-nan",
            "val-fraction-1.5", "node-budget-negative", "o-values-abc", "o-values-empty",
            "synth-precision-2",
            "seed-negative", "jobs-0"])
    def test_bad_numeric_option_exit_2(self, corpus_dir, tmp_path, capsys, argv, option):
        inputs = [] if argv[0] == "synth" else [*_system_args(corpus_dir),
                                                "--gold", f"{corpus_dir}/gold.props"]
        out = tmp_path / "x.out"
        rc = main([*argv, *inputs, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"srlcomb: {option} ")
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["FS1-FS9", "FS7", "fs1", "", "FS3-FS1"])
    def test_bad_features_exit_2_before_reading_input(self, tmp_path, capsys, spec):
        out = tmp_path / "m"
        rc = main(["train", "--system", str(tmp_path / "missing.props"),
                   "--gold", str(tmp_path / "missing-gold.props"),
                   "--scorer", "svm", "--features", spec, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"srlcomb: --features {spec!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize("names,problem", [
        (("A=", "A="), "two systems are named 'A'"),
        (("", "M1="), "two systems are named 'M1'"),
        # a model file's intervals rows are split on whitespace
        (("a b=", "B="), "the system name 'a b' holds whitespace"),
    ], ids=["both-named", "auto-name", "whitespace"])
    @pytest.mark.parametrize("command", [
        ["infer"], ["train", "--scorer", "svm"], ["pool", "--dump"]])
    def test_duplicate_system_names_exit_2(self, corpus_dir, tmp_path, capsys, command,
                                           names, problem):
        """A bad name is found before any file is read, so a missing file
        does not hide it."""
        systems = [arg for i, name in enumerate(names, 1)
                   for arg in ("--system", f"{name}{tmp_path}/missing{i}.props")]
        out = tmp_path / "x.out"
        argv = [*command, str(out)] if command[-1] == "--dump" else [*command, "--out", str(out)]
        rc = main([*argv, *systems, "--gold", f"{corpus_dir}/gold.props"])
        assert rc == 2
        assert capsys.readouterr().err == f"srlcomb: --system: {problem}\n"
        assert list(tmp_path.iterdir()) == []

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
        assert capsys.readouterr().err == "srlcomb: --report does nothing without --gold\n"
        assert not (tmp_path / "x.props").exists()

    def test_zero_sentences_curves_exit_2(self, empty_dir, capsys):
        rc = main(["curves", "--gold", f"{empty_dir}/gold.props",
                   "--system", f"{empty_dir}/sys1.props", "--out", f"{empty_dir}/c.csv"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("srlcomb: curves: ")
        assert not (empty_dir / "c.csv").exists()


    @pytest.mark.parametrize("case", ["system-dir", "system-not-utf8", "dump-dir",
                                      "synth-out-file", "out-under-file"])
    def test_unreadable_path_exit_2(self, corpus_dir, tmp_path, capsys, case):
        """A path that cannot be read or written as asked ends in exit 2 and
        one message naming it, not in a traceback."""
        binary = tmp_path / "binary.props"
        binary.write_bytes(bytes(range(256)))
        a_file = tmp_path / "file"
        a_file.write_text("")
        out = tmp_path / "x.props"
        system = ["--system", f"{corpus_dir}/sys1.props"]
        argv, path = {
            "system-dir": (["infer", "--system", str(tmp_path), "--out", str(out)], tmp_path),
            "system-not-utf8": (["infer", "--system", str(binary), "--out", str(out)], binary),
            "dump-dir": (["pool", *system, "--dump", str(tmp_path)], tmp_path),
            "synth-out-file": (["synth", "--sentences", "2", "--out", str(a_file)], a_file),
            "out-under-file": (["infer", *system, "--out", f"{a_file}/x.props"], a_file),
        }[case]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("srlcomb: ") and err.count("\n") == 1
        assert str(path) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["binary.props", "file"]
        assert a_file.read_text() == ""


class TestSyntaxInput:
    """A --syntax file is checked against the pool it describes, with or
    without --gold, and is read once, like every props file."""

    @pytest.fixture(scope="class")
    def model(self, corpus_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("syntax") / "m.svm"
        assert main(["train", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                     "--syntax", f"{corpus_dir}/gold.synt", "--scorer", "svm",
                     "--out", str(path)]) == 0
        return path

    @pytest.fixture(scope="class")
    def damaged(self, corpus_dir, tmp_path_factory):
        """Syntax files that disagree with the props by fault, and the message
        each gives.  Sentence 5 loses or repeats a token row inside its
        clause, so the file itself stays well formed."""
        d = tmp_path_factory.mktemp("damaged-syntax")
        text = (corpus_dir / "gold.synt").read_text()
        blocks = [block.splitlines() for block in text.strip("\n").split("\n\n")]
        faults = {
            "sentence-dropped": (blocks[:2] + blocks[3:],
                                 "syntax has 39 sentences, props has 40"),
            "row-deleted": (blocks[:5] + [blocks[5][:1] + blocks[5][2:]] + blocks[6:],
                            "sentence 5: token counts differ"),
            "row-added": (blocks[:5] + [blocks[5][:2] + blocks[5][1:]] + blocks[6:],
                          "sentence 5: token counts differ"),
        }
        out = {}
        for name, (sentences, message) in faults.items():
            (d / name).write_text("".join("\n".join(lines) + "\n\n" for lines in sentences))
            out[name] = (d / name, message)
        return out

    @pytest.mark.parametrize("fault", ["sentence-dropped", "row-deleted", "row-added"])
    @pytest.mark.parametrize("command", ["infer", "infer-no-gold", "train"])
    def test_mismatch_exit_2(self, corpus_dir, model, damaged, tmp_path, capsys,
                             command, fault):
        syntax, message = damaged[fault]
        gold = ["--gold", f"{corpus_dir}/gold.props"]
        argv = {
            "infer": ["infer", *gold, "--engine", "dp", "--scorer", "svm",
                      "--model", str(model)],
            "infer-no-gold": ["infer", "--engine", "dp", "--scorer", "svm",
                              "--model", str(model)],
            "train": ["train", *gold, "--scorer", "svm"],
        }[command]
        capsys.readouterr()
        rc = main([*argv, *_system_args(corpus_dir), "--syntax", str(syntax),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"srlcomb: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_each_file_read_once(self, corpus_dir, model, tmp_path, monkeypatch, capsys):
        read = []
        original = cli._read

        def recorded(path):
            read.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(cli, "_read", recorded)
        assert main(["infer", *_system_args(corpus_dir, scores=False), "--engine", "dp",
                     "--scorer", "svm", "--model", str(model),
                     "--syntax", f"{corpus_dir}/gold.synt",
                     "--out", str(tmp_path / "x.props")]) == 0
        assert read == ["sys1.props", "sys2.props", "sys3.props", "gold.synt"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_line_exit_0_or_2(self, corpus_dir, model, tmp_path_factory, data):
        """One line of the emitted syntax file deleted, repeated, blanked or
        replaced by other cells: the run succeeds or ends in exit 2."""
        lines = (corpus_dir / "gold.synt").read_text().splitlines()
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        cell = st.sampled_from(["*", "(S*", "*S)", "(S*S)", "B-NP", "I-VP", "O", "NN", "x",
                                "(NP*", "*)", "(", ")"])
        how = data.draw(st.sampled_from(["delete", "repeat", "blank", "replace"]), label="how")
        if how == "delete":
            lines = lines[:k] + lines[k + 1:]
        elif how == "repeat":
            lines = lines[:k + 1] + lines[k:]
        elif how == "blank":
            lines[k] = ""
        else:
            lines[k] = " ".join(data.draw(st.lists(cell, min_size=0, max_size=7), label="cells"))
        d = tmp_path_factory.mktemp("mutated")
        (d / "x.synt").write_text("\n".join(lines) + "\n")
        rc = main(["infer", *_system_args(corpus_dir), "--engine", "dp", "--scorer", "svm",
                   "--model", str(model), "--syntax", str(d / "x.synt"),
                   "--out", str(d / "x.props")])
        assert rc in (0, 2)
        assert (d / "x.props").exists() == (rc == 0)


class TestOnePassPool:
    """The subcommands build each pooled candidate once, gold flag and
    probabilities included, and report bad gold and score files as before."""

    def test_each_candidate_built_once(self, tmp_path, monkeypatch, capsys):
        """build_pool makes each candidate once, and never through the
        checked constructor."""
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "7", "--sentences", "1000"]) == 0
        checked, pools = [], []
        init, build = Candidate.__init__, cli.build_pool

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            checked.append(self.key)

        def kept(*args):
            pools.append(build(*args))
            return pools[-1]

        monkeypatch.setattr(Candidate, "__init__", counted)
        monkeypatch.setattr(cli, "build_pool", kept)
        assert main(["infer", *_system_args(corpus), "--gold", f"{corpus}/gold.props",
                     "--bootstrap", "100", "--out", str(tmp_path / "x.props")]) == 0
        assert checked == [] and len(pools) == 1
        keys = [c.key for c in pools[0].all_candidates()]
        assert len(keys) == len(set(keys)) == 7282

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
        first = gold.sentences[0]
        renamed = PropsSentence(first.n_tokens, tuple((i, "x" + lemma) for i, lemma in
                                                      first.predicates), first.arguments)
        (d / "renamed.props").write_text(
            emit_props(PropsDocument((renamed,) + gold.sentences[1:])))
        scores = d / "extra.scores"
        scores.write_text((d / "corpus/sys1.scores").read_text() + "999 0 A0 0 1 5.0\n")
        corpus = d / "corpus"
        ok_gold, ok_sys1 = f"{corpus}/gold.props", f"{corpus}/sys1.props:{corpus}/sys1.scores"
        return corpus, {
            "gold-skeleton": (f"{d}/other/gold.props", ok_sys1,
                              "sentence 0: token counts differ: system M1 has 18, gold has 20"),
            "gold-count": (f"{d}/short.props", ok_sys1,
                           "sentence counts differ: system M1 has 40, gold has 39"),
            "gold-predicates": (f"{d}/renamed.props", ok_sys1,
                                "sentence 0: predicates differ between system M1 and gold"),
            "system-count": (ok_gold, f"{d}/short.props",
                             "sentence counts differ: system M1 has 39, system M2 has 40"),
            "score-record": (ok_gold, f"{corpus}/sys1.props:{scores}",
                             "system M1: score record 999 0 A0 0 1 names no argument "
                             "of its props"),
        }

    @pytest.mark.parametrize("fault", ["gold-skeleton", "gold-count", "gold-predicates",
                                       "system-count", "score-record"])
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

    @pytest.mark.parametrize("scorer", ["svm", "perceptron-local", "perceptron-global"])
    def test_overflowing_degree_exit_2(self, corpus_dir, tmp_path, capsys, scorer):
        rc = main(["train", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                   "--scorer", scorer, "--degree", "300", "--out", str(tmp_path / "m")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("srlcomb: --degree 300 is too large for a vector of ")
        assert "features" in err
        assert not (tmp_path / "m").exists()

    def test_syntax_file_accepted(self, corpus_dir, tmp_path):
        model = tmp_path / "m.svm"
        rc = main(["train", *_system_args(corpus_dir),
                   "--gold", f"{corpus_dir}/gold.props",
                   "--syntax", f"{corpus_dir}/gold.synt",
                   "--scorer", "svm", "--out", str(model)])
        assert rc == 0

    def test_out_directory_created(self, corpus_dir, tmp_path):
        """train makes the model's directory, as every other writer does."""
        model = tmp_path / "new" / "dir" / "m.svm"
        assert main(["train", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                     "--scorer", "svm", "--out", str(model)]) == 0
        assert ScoreModel.load(model).kind == "svm"
        assert (model.parent / "m.svm.manifest.json").exists()


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

    @pytest.mark.parametrize("rules", [
        [], ["--constraints", "1+2"],
        ["--constraints", "1+2+3:soft=0.3+4:soft=0.5+5+6"],
    ], ids=["sentence", "pred", "soft-c3-c4"])
    def test_sweep_rows_match_infer(self, corpus_dir, tmp_path, capsys, rules):
        """Each sweep row scores what infer writes at that --bias."""
        gold_path = f"{corpus_dir}/gold.props"
        out, props = tmp_path / "sweep.csv", tmp_path / "x.props"
        assert main(["sweep", *_system_args(corpus_dir), "--gold", gold_path, *rules,
                     "--out", str(out)]) == 0
        gold = parse_props(Path(gold_path).read_text())
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(DEFAULT_O_GRID)
        for o, row in zip(DEFAULT_O_GRID, rows):
            assert main(["infer", *_system_args(corpus_dir), *rules, "--bias", str(o),
                         "--out", str(props)]) == 0
            report = score(parse_props(props.read_text()), gold)
            assert row == f"{o:g},{report.precision:.4f},{report.recall:.4f},{report.f1:.4f}"

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
        assert len(counted) == 59

    @pytest.mark.parametrize("command,option", [
        ("pool", "--syntax"), ("pool", "--seed"), ("pool", "--jobs"),
        ("train", "--seed"),
        ("sweep", "--syntax"), ("sweep", "--seed"), ("sweep", "--jobs"), ("sweep", "--bias"),
        ("sweep", "--scope"),
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
        value = {"--syntax": f"{corpus_dir}/gold.synt", "--scope": "pred"}.get(option, "1")
        with pytest.raises(SystemExit) as exit_:
            main(argv + [option, value])
        assert exit_.value.code == 2


_TRAINED = ["svm", "perceptron-local", "perceptron-global"]

# every (subcommand, option, mode) in which an option set off its default
# does nothing, or is refused as --jobs other than 1 is, with the option
# named in the message; and --engine dp without a trained scorer to decode,
# with the message naming --engine
_IDLE_OPTIONS = (
    [(["infer", "--engine", "cs", "--scorer", s], "--scorer") for s in _TRAINED]
    + [(["infer", "--engine", "cs", option, "x"], option) for option in ("--model", "--syntax")]
    + [(["infer", "--engine", "dp", *given], "--engine")
       for given in (["--model", "x"], ["--syntax", "x"], [], ["--scorer", "probsum"])]
    + [(["infer", "--engine", "cs", "--scope", "pred"], "--scope")]
    + [(["infer", "--engine", "dp", "--scorer", s, "--model", "m", "--bias", "0.5"], "--bias")
       for s in _TRAINED]
    + [(["infer", "--engine", "dp", *given], given[0])
       for given in (["--constraints", "1+2"], ["--constraints", ""], ["--trace"])]
    + [(["infer", option, value], option)
       for option, value in (("--seed", "5"), ("--bootstrap", "200"), ("--report", "r.csv"))]
    + [(["infer", "--seed", "5", "--bootstrap", "200"], "--seed")]
    # a props column cannot hold the overlapping arguments c1 forbids
    + [(["infer", "--constraints", spec], "--constraints") for spec in ("2", "1:soft=0.1+2", "")]
    + [(["train", "--scorer", s, "--C", "2"], "--C") for s in _TRAINED[1:]]
    + [(["train", "--scorer", "svm", "--epochs", "9"], "--epochs")]
    + [(["train", "--scorer", s, option, value], option) for s in _TRAINED[:2]
       for option, value in (("--scope", "sentence"), ("--val-fraction", "0.5"))]
    + [(["train", "--scorer", s, "--jobs", "4"], "--jobs") for s in _TRAINED]
    + [(["infer", "--jobs", "2"], "--jobs")]
    + [(["train", "--scorer", "svm", "--epochs", "9", "--scope", "sentence",
         "--val-fraction", "0.5"], "--epochs")]
    + [(["pool", "--gamma", "0.5"], "--gamma")]
)


class TestOptionsAct:
    @pytest.mark.parametrize("argv,option", _IDLE_OPTIONS,
                             ids=[" ".join(argv) for argv, _ in _IDLE_OPTIONS])
    def test_idle_option_exit_2_before_reading_input(self, tmp_path, capsys, argv, option):
        """The inputs do not exist, so exit 2 with the option's message shows
        that the check runs before any file is read."""
        argv = [*argv, "--system", str(tmp_path / "missing.props")]
        if option not in ("--seed", "--bootstrap", "--report"):
            argv += ["--gold", str(tmp_path / "missing-gold.props")]
        if argv[0] != "pool":
            argv += ["--out", str(tmp_path / "x.out")]
        argv = [str(tmp_path / a) if a == "r.csv" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"srlcomb: {option} ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_readme_table_lists_every_row(self):
        """The README's "acts when" table names exactly the (subcommand,
        option) pairs of cli._ACTS_WHEN."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = readme.split("| subcommand | option | acts when |\n", 1)[1].splitlines()
        listed = set()
        for line in itertools.takewhile(lambda l: l.startswith("|"), lines[1:]):
            command, options = line.split("|")[1:3]
            listed |= {(command.strip(" `"), opt.strip(" `")) for opt in options.split(",")}
        assert listed == {(command, "--" + dest.replace("_", "-"))
                          for command, dests, _acts, _where in cli._ACTS_WHEN
                          for dest in dests.split()}

    def test_dp_without_model_exit_2_before_reading_input(self, tmp_path, capsys):
        assert main(["infer", "--engine", "dp", "--scorer", "svm",
                     "--system", str(tmp_path / "missing.props"),
                     "--out", str(tmp_path / "x.props")]) == 2
        assert capsys.readouterr().err == "srlcomb: engine=dp with a trained scorer needs --model\n"
        assert list(tmp_path.iterdir()) == []

    def test_benchmark_shapes_accepted(self, corpus_dir, tmp_path):
        """The four argv shapes perfbench/worker.py runs, each with the
        --jobs 1 it appends, are legal."""
        inputs = [*_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props"]
        model = str(tmp_path / "model.svm")
        for shape in (["infer", "--engine", "cs", "--out", str(tmp_path / "cs.props")],
                      ["train", "--scorer", "svm", "--out", model],
                      ["train", "--scorer", "perceptron-global",
                       "--out", str(tmp_path / "model.gp")],
                      ["infer", "--engine", "dp", "--scorer", "svm", "--scope", "pred",
                       "--model", model, "--out", str(tmp_path / "dp.props")]):
            assert main(shape + inputs + ["--jobs", "1"]) == 0, shape

    @pytest.mark.parametrize("spec,rules", [("2", ConstraintSet.hard_rules(2)),
                                            ("", ConstraintSet())], ids=["c2-only", "empty"])
    def test_sweep_takes_any_constraint_set(self, corpus_dir, tmp_path, spec, rules):
        """sweep writes no props, so it needs no hard c1; an empty spec is the
        empty rule set, not the scope's default."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *_system_args(corpus_dir), "--gold", f"{corpus_dir}/gold.props",
                     "--constraints", spec, "--o-values", "0,0.3", "--out", str(out)]) == 0
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=7))
        pool = attach_probs(align_gold(build_pool(
            [(f"M{i + 1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
        assert out.read_text() == sweep_bias(pool, gold, CsConfig(constraints=rules),
                                             [0.0, 0.3]).csv()
        assert out.read_text() != sweep_bias(pool, gold, CsConfig(), [0.0, 0.3]).csv()


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


def _cyclic_garbage(argv: list) -> int:
    """The objects that the cyclic collector frees during main(argv), in
    main's own closing collection included, plus what a collection after it
    still finds.  The parser is built first: it is built once per process,
    not once per command."""
    build_parser()
    freed = []

    def hook(phase, info):
        if phase == "stop":
            freed.append(info["collected"])

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.callbacks.append(hook)
    try:
        assert main(argv) == 0
    finally:
        gc.callbacks.remove(hook)
        freed.append(gc.collect())
        if enabled:
            gc.enable()
    return sum(freed)


class TestCollector:
    """main runs each command with the cyclic collector paused and collects
    once at the end, so a command must make no reference cycles that grow
    with its input, and must leave the caller's collector as it was."""

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        out = {}
        for n in (20, 200):
            d = tmp_path_factory.mktemp(f"synth{n}")
            assert main(["synth", "--out", str(d), "--seed", "7", "--sentences", str(n)]) == 0
            args = [*_system_args(d), "--gold", f"{d}/gold.props"]
            assert main(["train", *args, "--scorer", "svm", "--out", str(d / "m.svm")]) == 0
            out[n] = d, args
        return out

    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("command", [
        ["infer", "--engine", "cs"],
        ["infer", "--engine", "cs", "--constraints", "1+2"],
        ["infer", "--engine", "dp", "--scorer", "svm", "--scope", "pred", "--model", "m.svm"],
        ["train", "--scorer", "svm"],
        ["train", "--scorer", "perceptron-local"],
        ["train", "--scorer", "perceptron-global"],
    ], ids=["cs", "cs-1+2", "dp-svm", "svm", "perceptron-local", "perceptron-global"])
    def test_cyclic_garbage_does_not_grow_with_corpus(self, corpora, tmp_path, capsys,
                                                      command, n):
        d, args = corpora[n]
        command = [str(d / a) if a == "m.svm" else a for a in command]
        assert _cyclic_garbage(command + args + ["--out", str(tmp_path / "out")]) <= 100

    @pytest.mark.parametrize("case,want", [
        ("ok", 0), ("damaged", 2), ("mismatch", 3), ("timeout", 4), ("usage", None),
        ("disabled", 0),
    ])
    def test_caller_state_restored(self, corpora, tmp_path, capsys, case, want):
        d, args = corpora[20]
        bad = tmp_path / "bad.props"
        bad.write_text("- (A0*\n\n")
        argv = {
            "damaged": ["infer", "--system", str(bad)],
            "mismatch": ["infer", *args, "--engine", "dp", "--scorer", "perceptron-local",
                         "--model", str(d / "m.svm")],
            "timeout": ["infer", *args, "--node-budget", "1"],
            "usage": ["infer", "--no-such-option"],
        }.get(case, ["infer", *args]) + ["--out", str(tmp_path / "x.props")]
        if case == "disabled":
            gc.disable()
        before = gc.isenabled(), gc.get_freeze_count()
        try:
            if want is None:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == want
            assert (gc.isenabled(), gc.get_freeze_count()) == before
        finally:
            gc.enable()

    def test_caller_freeze_kept(self, corpora, tmp_path, capsys):
        """A caller that froze its heap keeps it frozen, and main freezes
        nothing of its own."""
        d, args = corpora[20]
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert main(["infer", *args, "--out", str(tmp_path / "x.props")]) == 0
            assert gc.isenabled()
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()
