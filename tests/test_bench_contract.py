"""What the benchmark under perfbench/ relies on in srlcomb.

The benchmark traces a run by swapping module attributes for timing
wrappers, and checks branch and bound at predicate scope against the
interval DP.  These tests import perfbench/ as it is and change nothing in
it, so a refactor that breaks either fails here first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from srlcomb import cli, features, infer_cs, infer_dp, learn  # noqa: E402

SWAPPED = [
    (cli, name) for name in (
        "parse_props", "parse_scores", "emit_props", "build_pool", "solutions_to_props",
        "build_intervals", "train_local_svm", "score_pool", "label_datasets",
        "make_examples", "infer_corpus", "decode_corpus", "score", "bootstrap",
        "train_global_perceptron")
] + [
    # the pool stages no subcommand calls any more, kept for the benchmark
    (cli, stage.__name__) for stage in cli.PERFBENCH_POOL_STAGES
] + [
    (features.FeatureExtractor, "extract_pool"),
    (learn.ScoreModel, "save"),
    (learn.ScoreModel, "load"),
    (infer_cs, "solve_with_stats"),
    (infer_dp, "infer_sentence"),
    (learn, "infer_sentence"),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return workloads.write_corpus(tmp_path_factory.mktemp("bench"), 20, 5, {})


def _inputs(corpus: dict) -> list:
    args = ["--jobs", "1", "--gold", corpus["gold"]]
    for props, scores in corpus["systems"]:
        args += ["--system", f"{props}:{scores}"]
    return args


def test_tracer_swaps_and_restores_every_call_site():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in SWAPPED}
    with spans.installed(spans.Tracer()):
        for (owner, attr), original in before.items():
            swapped = owner.__dict__[attr]
            assert swapped is not original, f"{owner.__name__}.{attr} not swapped"
            # a classmethod is unwrapped on both sides
            wrapper = getattr(swapped, "__func__", swapped)
            inner = getattr(original, "__func__", original)
            assert getattr(wrapper, "__wrapped__", None) is inner, \
                f"{owner.__name__}.{attr} does not wrap the original"
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_per_sentence_calls_are_traced(corpus, tmp_path, capsys):
    """The corpus-level helpers and global Perceptron training look the
    per-sentence entry points up at call time, so every sentence shows."""
    n = corpus["sentences"]
    with spans.installed(spans.Tracer()) as tracer:
        assert cli.main(["infer", "--engine", "cs", "--scope", "pred",
                         "--out", str(tmp_path / "cs.props")] + _inputs(corpus)) == 0
        assert cli.main(["infer", "--engine", "dp", "--scorer", "probsum",
                         "--scope", "pred", "--out", str(tmp_path / "dp.props")]
                        + _inputs(corpus)) == 0
        assert cli.main(["train", "--scorer", "perceptron-global", "--epochs", "1",
                         "--out", str(tmp_path / "gp.model")] + _inputs(corpus)) == 0
    capsys.readouterr()
    _times, _self, calls = spans.layer_times(tracer.spans)
    assert calls["infer_cs.solve_with_stats"] == n
    assert tracer.counts["infer_cs.nodes"] > 0
    # n decodes from `infer --engine dp`, more from training and validation
    assert calls["infer_dp.infer_sentence"] > n
    assert calls["learn.train_global_perceptron"] == 1
    assert tracer.counts["features.vectors"] > 0


def test_pred_scope_check_passes(corpus):
    errors, checked = checks.pred_scope_errors(corpus, workloads.GAMMA, workloads.BIAS)
    assert errors == []
    assert checked == corpus["sentences"]
