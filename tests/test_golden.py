"""Byte identity of srlcomb's outputs for fixed seeds.

A fixed list of commands runs in-process through ``cli.main`` on four small
corpora: ``synth --seed 1`` and ``--seed 2`` (100 sentences each),
``hard-50`` (ten systems, so that ``M10`` sorts before ``M2``), and
``hard-50-relabelled``, where a quarter of the core and adjunct arguments
are R-X or C-X in the systems and in gold alike, so that c3 and c4 act.
``seed-1`` also gets a syntax file with multi-token chunks, named entities,
nested clauses and a parse column (tests/rich_syntax.py), so that the
training and dp commands given it pin FS4 and FS5 on real syntax.  Each file a
command writes, its manifest included, and its stdout are hashed with
SHA-256, the run directory masked, and compared with the table in
``tests/golden.json``.  Two of the commands also run in fresh processes under
two ``PYTHONHASHSEED`` values, and an SVM's training and scoring with one
BLAS thread and with the default number.

A change that is meant to change an output rewrites the table with

    PYTHONPATH=src python tests/test_golden.py

and names each changed entry, and why it changed, in CHANGES.md.  Model files
hold floats from numpy arithmetic, so a numpy or platform change may move
their last bits; then the table is rewritten and the rewrite declared.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from conftest import relabelled
from rich_syntax import rich_sentences
from srlcomb.cli import main
from srlcomb.corpus_io import (
    SyntheticConfig,
    emit_props,
    emit_scores,
    emit_syntax,
    generate_synthetic,
    parse_props,
)

TESTS = Path(__file__).resolve().parent
TABLE = TESTS / "golden.json"
MASK = "<run>"

# the hard-50 corpus of tests/conftest.py, written out here so that this
# module also runs as a script
HARD_50 = SyntheticConfig(n_sentences=50, n_systems=10, tokens_range=(30, 60),
                          predicates_range=(1, 8), args_range=(2, 5), precision=0.5,
                          correct_score_mean=3.0, wrong_score_mean=-3.0, score_sd=40.0, seed=3)
SOFT = "1+2+3:soft=0.5+4:soft=0.3"
# the rule sets decoded on hard-50-relabelled, by entry name
RELABELLED_RULES = (("cs-1+2", "1+2"), ("cs-1+2+3+4", "1+2+3+4"), ("cs-soft", SOFT))

# the commands that also run under two hash seeds
HASHSEED_COMMANDS = ("seed-1/train-perceptron-global", "hard-50/cs-soft")
# the commands that also run with one BLAS thread and with the default
# number, and the variables that set it
BLAS_COMMANDS = ("seed-1/train-svm", "seed-2/dp-svm-pred", "seed-2/dp-svm-sentence")
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _digests(run: Path, out: Path, stdout: str, name: str) -> dict:
    """SHA-256 of ``stdout`` and of each file under ``out``, with ``run``
    masked, keyed ``name/stdout`` and ``name/<file>``."""
    texts = {"stdout": stdout}
    texts.update((p.name, p.read_text(encoding="utf-8")) for p in sorted(out.iterdir()))
    return {f"{name}/{key}": hashlib.sha256(text.replace(str(run), MASK).encode()).hexdigest()
            for key, text in texts.items()}


def _run(run: Path, name: str, argv: list) -> dict:
    """Run one command with its outputs in ``run/out/<name>``; its digests."""
    out = run / "out" / name
    out.mkdir(parents=True)
    argv = [arg.replace("{out}", str(out)) for arg in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0, f"{name}: {' '.join(argv)}"
    return _digests(run, out, buf.getvalue(), name)


def _systems(corpus: Path, n: int) -> list:
    return [f"--system={corpus}/sys{i}.props:{corpus}/sys{i}.scores" for i in range(1, n + 1)]


def _write_corpus(path: Path, gold, systems) -> None:
    path.mkdir(parents=True)
    (path / "gold.props").write_text(emit_props(gold), encoding="utf-8")
    for i, (doc, table) in enumerate(systems, 1):
        (path / f"sys{i}.props").write_text(emit_props(doc), encoding="utf-8")
        (path / f"sys{i}.scores").write_text(emit_scores(table), encoding="utf-8")


def write_corpora(run: Path) -> dict:
    """Write the corpora under ``run``, and seed-1's rich syntax; the digests
    of what ``synth`` wrote and of the rich syntax."""
    digests = {}
    for seed in (1, 2):
        digests.update(_run(run, f"seed-{seed}/synth",
                            ["synth", "--out", "{out}", "--seed", str(seed), "--sentences", "100"]))
    gold, systems = generate_synthetic(HARD_50)
    _write_corpus(run / "out" / "hard-50", gold, systems)
    _write_corpus(run / "out" / "hard-50-relabelled", relabelled(gold, None, 0.25)[0],
                  [relabelled(doc, table, 0.25) for doc, table in systems])
    seed_1 = parse_props((run / "out" / "seed-1/synth/gold.props").read_text(encoding="utf-8"))
    rich = emit_syntax(rich_sentences(seed_1, 1))
    (run / "out" / "seed-1/rich").mkdir()
    (run / "out" / "seed-1/rich/rich.synt").write_text(rich, encoding="utf-8")
    digests["seed-1/rich/rich.synt"] = hashlib.sha256(rich.encode()).hexdigest()
    return digests


def commands(run: Path) -> list:
    """(name, argv) of every command after the corpora, in run order;
    "{out}" in argv stands for the command's own output directory."""
    s1, s2, hard, relabel = (run / "out" / name for name in (
        "seed-1/synth", "seed-2/synth", "hard-50", "hard-50-relabelled"))
    rich = [f"--syntax={run}/out/seed-1/rich/rich.synt"]
    model = {scorer: run / "out" / f"seed-1/train-{scorer}" / "model"
             for scorer in ("svm", "perceptron-local", "perceptron-global", "svm-syntax",
                            "svm-rich", "perceptron-global-rich")}
    out = []
    for name, corpus, n in (("seed-1", s1, 3), ("seed-2", s2, 3), ("hard-50", hard, 10)):
        systems = _systems(corpus, n)
        gold = [f"--gold={corpus}/gold.props"]
        props = ["--out", "{out}/pred.props"]
        out += [
            (f"{name}/pool-dump", ["pool", *systems, *gold, "--dump", "{out}/pool.json"]),
            (f"{name}/cs-default", ["infer", *systems, *props]),
            (f"{name}/cs-1+2-trace", ["infer", *systems, "--constraints", "1+2", "--trace",
                                      *props]),
            (f"{name}/cs-soft", ["infer", *systems, "--constraints", SOFT, *props]),
            (f"{name}/cs-gold-report", ["infer", *systems, *gold, "--report", "{out}/report.csv",
                                        *props]),
            (f"{name}/oracle", ["oracle", *systems, *gold, "--out", "{out}/oracle.txt"]),
            (f"{name}/curves", ["curves", *systems, *gold, "--out", "{out}/curve.csv"]),
        ]
    systems, gold = _systems(s1, 3), [f"--gold={s1}/gold.props"]
    out += [
        ("hard-50/cs-bias-0.5", ["infer", *_systems(hard, 10), "--bias", "0.5",
                                 "--out", "{out}/pred.props"]),
        # system names given out of id order
        ("seed-1/named-cab", ["infer", f"--system=c={s1}/sys1.props:{s1}/sys1.scores",
                              f"--system=a={s1}/sys2.props:{s1}/sys2.scores",
                              f"--system=b={s1}/sys3.props:{s1}/sys3.scores",
                              "--constraints", SOFT, "--out", "{out}/pred.props"]),
        ("seed-1/sweep", ["sweep", *systems, *gold, "--out", "{out}/sweep.csv"]),
        ("seed-1/train-svm-syntax", ["train", *systems, *gold, "--scorer", "svm",
                                     f"--syntax={s1}/gold.synt", "--out", "{out}/model"]),
    ]
    for scorer in ("svm", "perceptron-local", "perceptron-global"):
        out.append((f"seed-1/train-{scorer}",
                    ["train", *systems, *gold, "--scorer", scorer, "--out", "{out}/model"]))
    for scorer in ("svm", "perceptron-global"):
        out.append((f"seed-1/train-{scorer}-rich", ["train", *systems, *gold, "--scorer", scorer,
                                                    *rich, "--out", "{out}/model"]))
        for scope in ("pred", "sentence"):
            out.append((f"seed-1/dp-{scorer}-rich-{scope}",
                        ["infer", *systems, *gold, "--engine", "dp", "--scorer", scorer,
                         "--model", str(model[f"{scorer}-rich"]), "--scope", scope, *rich,
                         "--out", "{out}/pred.props"]))
    for name, rules in RELABELLED_RULES:
        out.append((f"hard-50-relabelled/{name}", ["infer", *_systems(relabel, 10),
                                                   "--constraints", rules,
                                                   "--out", "{out}/pred.props"]))
    for scorer, syntax in (("svm", []), ("perceptron-local", []), ("perceptron-global", []),
                           ("svm-syntax", [f"--syntax={s2}/gold.synt"])):
        for scope in ("pred", "sentence"):
            out.append((f"seed-2/dp-{scorer}-{scope}",
                        ["infer", *_systems(s2, 3), f"--gold={s2}/gold.props", "--engine", "dp",
                         "--scorer", scorer.removesuffix("-syntax"), "--model",
                         str(model[scorer]), "--scope", scope, *syntax,
                         "--out", "{out}/pred.props"]))
    return out


def digest_all(run: Path, names=None) -> dict:
    """The digests of the corpora and of every command, or of the commands
    in ``names``."""
    digests = write_corpora(run)
    for name, argv in commands(run):
        if names is None or name in names:
            digests.update(_run(run, name, argv))
    return digests


def _table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return digest_all(tmp_path_factory.mktemp("golden"))


def test_outputs_are_byte_identical(digests):
    """Every entry of the table, and no other, with its digest."""
    table = _table()
    assert sorted(k for k in table.keys() | digests.keys() if table.get(k) != digests.get(k)) == []


def test_existential_rules_change_the_relabelled_output(digests):
    """On hard-50-relabelled, c3 and c4 change what is selected, hard or
    soft: the three rule sets write three different props files."""
    props = {digests[f"hard-50-relabelled/{name}/pred.props"] for name, _ in RELABELLED_RULES}
    assert len(props) == len(RELABELLED_RULES)


def _entries(digests: dict, names: tuple) -> dict:
    """The entries of ``digests`` that the commands ``names`` wrote."""
    prefixes = tuple(name + "/" for name in names)
    return {k: v for k, v in digests.items() if k.startswith(prefixes)}


def _fresh_digests(run: Path, names: tuple, env: dict) -> dict:
    """The digests of the commands ``names``, computed in a fresh process
    with ``env`` as its environment."""
    code = ("import json, sys; from pathlib import Path; from test_golden import digest_all; "
            "print(json.dumps(digest_all(Path(sys.argv[1]), set(sys.argv[2:]))))")
    env = dict(env, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    out = subprocess.run([sys.executable, "-c", code, str(run), *names],
                         capture_output=True, text=True, env=env, check=True)
    return _entries(json.loads(out.stdout), names)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """The same commands in fresh processes under two PYTHONHASHSEED values
    write what the table holds."""
    seen = [_fresh_digests(tmp_path / seed, HASHSEED_COMMANDS,
                           dict(os.environ, PYTHONHASHSEED=seed))
            for seed in ("0", "12345")]
    expected = _entries(_table(), HASHSEED_COMMANDS)
    assert expected and seen[0] == seen[1] == expected


def test_scores_do_not_depend_on_blas_threads(tmp_path):
    """An SVM trained and then scored by the dp engine in fresh processes,
    once with BLAS and OpenMP held to one thread and once with their
    defaults, writes what the table holds: model scores are sums of exact
    integer dot products, so the thread count moves no bit."""
    default = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    one = dict(default, **{k: "1" for k in _THREAD_VARIABLES})
    seen = [_fresh_digests(tmp_path / name, BLAS_COMMANDS, env)
            for name, env in (("one", one), ("default", default))]
    expected = _entries(_table(), BLAS_COMMANDS)
    assert expected and seen[0] == seen[1] == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digest_all(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} entries written to {TABLE}")
