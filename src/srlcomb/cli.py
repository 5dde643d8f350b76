"""Batch command-line front end.

Subcommands wire the library into the experiment pipelines: pooling and
agreement stats, inference with either engine, model training, the bias
sweep, rejection curves, oracle/baseline reports, and synthetic corpora.
Every run with an output path writes a manifest of resolved parameters next
to it.  Exit codes: 0 ok, 2 input format, 3 model mismatch, 4 timeout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from pathlib import Path

from . import __version__
from .calibrate import (
    DEFAULT_GAMMA,
    attach_probs,
    build_intervals,
    curve_csv,
    pool_rejection_items,
    rejection_curve,
)
from .corpus_io import (
    AlignmentError,
    FormatError,
    SerializationError,
    SyntheticConfig,
    emit_props,
    emit_scores,
    emit_syntax,
    generate_synthetic,
    parse_props,
    parse_scores,
    parse_syntax,
    skeleton_sentences,
)
from .evaluate import (
    BOOTSTRAP_LEVEL,
    baseline_precision,
    baseline_recall,
    bootstrap,
    oracle_combination,
    oracle_rerank,
    score,
)
from .features import FeatureConfig, FeatureExtractor
from .infer_cs import (
    DEFAULT_BIAS,
    DEFAULT_O_GRID,
    CsConfig,
    InferenceTimeout,
    Scope,
    infer_corpus,
    sweep_bias,
)
from .infer_dp import decode_corpus
from .learn import (
    DEFAULT_C,
    DEFAULT_DEGREE,
    DEFAULT_EPOCHS,
    ModelMismatchError,
    ScoreModel,
    check_degree,
    label_datasets,
    make_examples,
    score_pool,
    train_global_perceptron,
    train_local_perceptron,
    train_local_svm,
)
from .model import ConstraintSet
from .pool import align_gold, build_pool, dump_pool, pool_stats, solutions_to_props

DEFAULT_BOOTSTRAP = 1000

# build_pool sets gold flags and probabilities itself, so no subcommand calls
# these two stages; they stay names of this module because the benchmark reads
# them from it: perfbench/spans.py swaps them for timing wrappers, and
# perfbench/worker.py builds the search-hard pools with them
PERFBENCH_POOL_STAGES = (align_gold, attach_probs)


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low), f"must be >= {low}"


_UNIT = ((lambda v: 0.0 <= v <= 1.0), "must be in [0, 1]")
_MIN_MAX = ((lambda v: 1 <= v[0] <= v[1]), "needs 1 <= MIN <= MAX")

# (test, requirement) of every numeric option, by destination; a value that
# fails its test is an input error that names the option
_NUMERIC_OPTIONS = {
    # at 0 every probability is 0.5, and below it a higher score gets a lower one
    "gamma": ((lambda v: math.isfinite(v) and v > 0.0), "must be finite and above 0"),
    "bias": (math.isfinite, "must be finite"),
    "degree": _at_least(1), "epochs": _at_least(1), "node_budget": _at_least(1),
    # --jobs stays, legal only at 1, since perfbench/worker.py passes it to every call
    "jobs": ((lambda v: v == 1), "must be 1: srlcomb runs each command in one process"),
    "bootstrap": _at_least(100), "seed": _at_least(0),
    # SMO's bound tolerance is 1e-12: at a smaller C no point can move off its bound
    "C": ((lambda v: math.isfinite(v) and v > 1e-12), "must be finite and above 1e-12"),
    "val_fraction": ((lambda v: 0.0 <= v < 1.0), "must be in [0, 1)"),
    "sentences": _at_least(0), "systems": _at_least(1),
    "precision": _UNIT, "recall": _UNIT, "label_noise": _UNIT, "boundary_noise": _UNIT,
    "tokens": _MIN_MAX, "predicates": _MIN_MAX, "args_per_predicate": _MIN_MAX,
}


def _check_numeric_options(args) -> None:
    for dest, (valid, requirement) in _NUMERIC_OPTIONS.items():
        value = getattr(args, dest, None)
        if value is not None and not valid(value):
            raise FormatError(f"--{dest.replace('_', '-')} {requirement}")


# where options act: (subcommand, destinations, test that they act, the case where they do not)
_ACTS_WHEN = [
    ("infer", "scorer model syntax scope", lambda a: a.engine == "dp", "with --engine cs"),
    ("infer", "bias constraints trace", lambda a: a.engine == "cs", "with --engine dp"),
    ("infer", "seed bootstrap report", lambda a: a.gold is not None, "without --gold"),
    ("train", "C", lambda a: a.scorer == "svm", "with a Perceptron --scorer"),
    ("train", "epochs", lambda a: a.scorer != "svm", "with --scorer svm"),
    ("train", "scope val_fraction", lambda a: a.scorer == "perceptron-global",
     "with a local --scorer"),
    ("pool", "gamma", lambda a: a.dump is not None, "without --dump"),
]


def _check_options_act(args, subparser: argparse.ArgumentParser) -> None:
    for command, dests, acts, where in _ACTS_WHEN:
        idle = [d for d in dests.split() if getattr(args, d, None) != subparser.get_default(d)]
        if command == args.command and idle and not acts(args):
            raise FormatError(f"--{idle[0].replace('_', '-')} does nothing {where}")


def _read(path: str) -> str:
    # newline="": the parsers end lines themselves (corpus_io.text_lines)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _write(path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_manifest(args: argparse.Namespace, anchor) -> None:
    anchor = Path(anchor)
    if anchor.is_dir():
        path = anchor / "manifest.json"
    else:
        path = anchor.with_name(anchor.name + ".manifest.json")
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    payload["version"] = __version__
    _write(path, json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")


def _parse_system_arg(text: str):
    """NAME=PROPS[:SCORES] or just PROPS[:SCORES] with an auto name.  The
    text before the first "=" is a name only when it holds no "/", so that
    ``runs/a=b/sys1.props`` is a path; the first ":" after the name starts
    the SCORES path."""
    name, eq, rest = text.partition("=")
    if eq and "/" not in name:
        text = rest
    else:
        name = None
    props_path, _, scores_path = text.partition(":")
    return name, props_path, scores_path or None


def _load_systems(args, scores: bool) -> list:
    """The named props of every --system, with its score sidecar if
    ``scores`` is set; otherwise no sidecar is opened.  A system without a
    name is called M<i> after its place in the list; a name with whitespace
    or given twice is an input error, found before any file is read."""
    specs = [_parse_system_arg(spec) for spec in args.system]
    names = [name or f"M{i}" for i, (name, _, _) in enumerate(specs, 1)]
    for i, name in enumerate(names):
        if any(map(str.isspace, name)):     # a name is one field of a model's intervals rows
            raise FormatError(f"--system: the system name {name!r} holds whitespace")
        if name in names[:i]:
            raise FormatError(f"--system: two systems are named {name!r}")
    systems = []
    for name, (_, props_path, scores_path) in zip(names, specs):
        doc = parse_props(_read(props_path))
        table = parse_scores(_read(scores_path)) if scores and scores_path else None
        systems.append((name, doc, table))
    return systems


def _load_pool(args, gamma=None):
    """The pool of every --system and the --gold document, if one is given;
    the candidates carry gold flags with gold, and probabilities at the
    softmax temperature ``gamma`` if it is given.  Without it no score
    sidecar is opened.  The systems are read first, then gold."""
    systems = _load_systems(args, scores=gamma is not None)
    gold = parse_props(_read(args.gold)) if args.gold else None
    return build_pool(systems, gold, gamma), gold


def _load_sentences(args):
    """The --syntax sentences; without --syntax, None, and the extractor
    reads each sentence from its pool skeleton."""
    return parse_syntax(_read(args.syntax)) if args.syntax else None


def _cs_config(args, bias: float = DEFAULT_BIAS) -> CsConfig:
    """The cs engine's settings: the rules of --constraints, 1+2+5+6 without
    it.  A constraint spec that does not parse is an input error."""
    try:
        return CsConfig.for_scope(
            Scope.FULL_SENTENCE, bias=bias, node_budget=args.node_budget,
            constraints=None if args.constraints is None else ConstraintSet.parse(args.constraints))
    except ValueError as exc:
        raise FormatError(f"--constraints {args.constraints}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> int:
    cfg = SyntheticConfig(
        n_sentences=args.sentences,
        tokens_range=tuple(args.tokens),
        predicates_range=tuple(args.predicates),
        args_range=tuple(args.args_per_predicate),
        n_systems=args.systems,
        precision=args.precision,
        recall=args.recall,
        label_noise=args.label_noise,
        boundary_noise=args.boundary_noise,
        seed=args.seed)
    gold, systems = generate_synthetic(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "gold.props", emit_props(gold))
    _write(out / "gold.synt", emit_syntax(skeleton_sentences(gold)))
    for i, (doc, table) in enumerate(systems, 1):
        _write(out / f"sys{i}.props", emit_props(doc))
        _write(out / f"sys{i}.scores", emit_scores(table))
    _write_manifest(args, out)
    print(f"wrote gold + {len(systems)} systems ({cfg.n_sentences} sentences) to {out}")
    return 0


def cmd_pool(args) -> int:
    pool, gold = _load_pool(args, args.gamma if args.dump else None)
    n = sum(len(s.candidates) for s in pool.sentences)
    print(f"pool: {len(pool.sentences)} sentences, {n} candidates, "
          f"{pool.m} systems ({', '.join(pool.system_ids)})")
    if gold is not None:
        print(pool_stats(pool).text_table())
    if args.dump:
        _write(args.dump, dump_pool(pool))
        _write_manifest(args, args.dump)
        print(f"pool dump written to {args.dump}")
    return 0


def _load_model(args):
    """The --model file, checked against --scorer and its kernel degree."""
    try:
        model = ScoreModel.load(args.model)
    except ValueError as exc:
        raise FormatError(f"{args.model}: {exc}") from exc
    if model.kind != args.scorer:
        raise ModelMismatchError(
            f"model is {model.kind!r} but --scorer asked for {args.scorer!r}")
    try:
        # every kernel value of scoring is at most a support's own
        check_degree(model.degree, (sv for sc in model.scorers.values()
                                    for _coef, _tick, sv in sc.supports))
    except ValueError as exc:
        raise FormatError(f"{args.model}: model {exc}") from None
    return model


def cmd_infer(args) -> int:
    if args.engine == "cs":
        cfg = _cs_config(args, args.bias)
        if cfg.constraints.c1.mode != "hard":
            raise FormatError(f"--constraints {args.constraints}: infer needs c1 hard, "
                              "since a props column cannot hold overlapping arguments")
    elif args.scorer == "probsum":
        raise FormatError("--engine dp decodes a trained --scorer with its --model; for probsum "
                          "use --engine cs --constraints 1+2 (--scope pred) or 1+2+5 (sentence)")
    elif not args.model:
        raise FormatError("engine=dp with a trained scorer needs --model")
    pool, gold = _load_pool(args, args.gamma)

    if args.engine == "cs":
        decoded = infer_corpus(pool, cfg)
        if args.trace:
            for sent, (_, nodes) in zip(pool.sentences, decoded):
                print(f"trace: sentence {sent.sentence_id}: "
                      f"{len(sent.candidates)} candidates, {nodes} nodes")
            print(f"trace: {sum(nodes for _, nodes in decoded)} nodes total")
        solutions = [sol for sol, _ in decoded]
    else:
        model = _load_model(args)
        sentences = _load_sentences(args)
        try:
            margins = score_pool(model, pool, sentences)
        except AlignmentError:
            raise       # the syntax does not fit the props, whatever the model
        except ValueError as exc:
            raise FormatError(f"{args.model}: model {exc}") from None
        solutions = decode_corpus(pool, margins, Scope(args.scope), node_budget=args.node_budget)

    predicted = solutions_to_props(pool, solutions)
    _write(args.out, emit_props(predicted))
    _write_manifest(args, args.out)
    print(f"predictions written to {args.out}")
    if gold is not None:
        report = score(predicted, gold)
        print(report.text_table())
        boot = bootstrap(report, b=args.bootstrap, seed=args.seed)
        print(f"F1 {boot.formatted()} ({int(BOOTSTRAP_LEVEL * 100)}% interval, B={boot.b})")
        if args.report:
            _write(args.report, report.csv())
    return 0


def cmd_train(args) -> int:
    try:
        config = FeatureConfig.parse_groups(args.features)
    except ValueError as exc:
        raise FormatError(f"--features {args.features!r}: {exc}") from None
    pool, gold = _load_pool(args, args.gamma)
    if not pool.sentences:
        raise FormatError("train: the corpus has no sentences to learn from")
    extractor = FeatureExtractor(config, intervals=build_intervals(pool))
    pool = extractor.extract_pool(pool, _load_sentences(args))
    try:
        check_degree(args.degree, (c.features for c in pool.all_candidates()))
    except ValueError as exc:
        raise FormatError(f"--{exc}") from None

    if args.scorer == "svm":
        model = train_local_svm(label_datasets(pool), degree=args.degree, c=args.C,
                                extractor=extractor)
    elif args.scorer == "perceptron-local":
        model = train_local_perceptron(label_datasets(pool), degree=args.degree,
                                       epochs=args.epochs, extractor=extractor)
    else:
        examples = make_examples(pool, gold)
        if len(examples) < 2:
            raise FormatError("train: perceptron-global needs at least 2 sentences, "
                              "since it holds the last one out for validation")
        n_val = max(1, int(len(examples) * args.val_fraction))
        model, log = train_global_perceptron(
            examples[:-n_val], scope=Scope(args.scope), degree=args.degree,
            epochs=args.epochs, extractor=extractor, validation=examples[-n_val:])
        print(f"epoch F1 on validation: "
              f"{', '.join(f'{f: .2f}' for f in log.epoch_f1)} "
              f"(kept epoch {log.selected_epoch + 1})")
    model.save(args.out)
    _write_manifest(args, args.out)
    n_sup = sum(len(sc.supports) for sc in model.scorers.values())
    print(f"model ({model.kind}, degree {model.degree}, {len(model.scorers)} labels, "
          f"{n_sup} support vectors) written to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    pool, gold = _load_pool(args, args.gamma)
    grid = list(DEFAULT_O_GRID)
    if args.o_values is not None:
        try:
            grid = [float(x) for x in args.o_values.split(",")]
        except ValueError as exc:
            raise FormatError(f"--o-values {args.o_values}: {exc}") from None
        if not all(map(math.isfinite, grid)):
            raise FormatError(f"--o-values {args.o_values}: values must be finite")
    result = sweep_bias(pool, gold, _cs_config(args), grid)
    _write(args.out, result.csv())
    _write_manifest(args, args.out)
    print(f"{len(result.rows)} rows written to {args.out} "
          f"(recall monotone: {result.recall_monotone})")
    return 0


def cmd_curves(args) -> int:
    pool, _gold = _load_pool(args, args.gamma)
    items = pool_rejection_items(pool)
    if not items:
        raise FormatError("curves: the systems propose no arguments to rank")
    curve = rejection_curve(items)
    _write(args.out, curve_csv(curve))
    _write_manifest(args, args.out)
    print(f"rejection curve written to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    # oracles and baselines read votes and gold flags, never scores
    pool, gold = _load_pool(args)
    blocks = [
        ("Combination", oracle_combination(pool)),
        ("Re-Ranking", oracle_rerank(pool, gold)),
        ("Baseline recall", baseline_recall(pool)),
        ("Baseline precision", baseline_precision(pool)),
    ]
    out_lines = []
    for name, solutions in blocks:
        report = score(solutions_to_props(pool, solutions), gold)
        out_lines.append(f"== {name}")
        out_lines.append(f"PProps {report.pprops:.2f}%  Precision {report.precision:.2f}%  "
                         f"Recall {report.recall:.2f}%  F1 {report.f1:.2f}")
    text = "\n".join(out_lines)
    print(text)
    if args.out:
        _write(args.out, text + "\n")
        _write_manifest(args, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser


# the options several subcommands share; each subcommand takes those it reads
_SHARED_OPTIONS = {
    "system": dict(action="append", required=True, metavar="NAME=PROPS[:SCORES]",
                   help="per-system props file with optional score sidecar; repeatable. "
                        "The text before the first '=' is NAME only when it holds no '/'; "
                        "the first ':' after NAME starts SCORES, so PROPS cannot hold a ':'"),
    "gold": dict(help="gold props file"),
    "syntax": dict(help="syntax column file (chunks/clauses/parse)"),
    "gamma": dict(type=float, default=DEFAULT_GAMMA,
                  help="softmax temperature for score calibration"),
    "seed": dict(type=int, default=0, help="seed for stochastic steps"),
    "jobs": dict(type=int, default=1, help="must be 1; every command runs in one process"),
}


@functools.cache     # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srlcomb",
        description="Combine the outputs of several semantic-role-labeling "
                    "systems into one consistent analysis per sentence.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, shared, gold_required=True):
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        for option in shared.split():
            extra = {"required": gold_required} if option == "gold" else {}
            p.add_argument(f"--{option}", **_SHARED_OPTIONS[option], **extra)
        return p

    p = add("synth", cmd_synth, "generate a synthetic corpus", "seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sentences", type=int, default=100)
    p.add_argument("--systems", type=int, default=3)
    p.add_argument("--precision", type=float, default=0.80)
    p.add_argument("--recall", type=float, default=0.75)
    p.add_argument("--label-noise", type=float, default=0.05)
    p.add_argument("--boundary-noise", type=float, default=0.05)
    p.add_argument("--tokens", type=int, nargs=2, default=[8, 26], metavar=("MIN", "MAX"))
    p.add_argument("--predicates", type=int, nargs=2, default=[1, 3], metavar=("MIN", "MAX"))
    p.add_argument("--args-per-predicate", type=int, nargs=2, default=[1, 4],
                   metavar=("MIN", "MAX"))

    p = add("pool", cmd_pool, "build the candidate pool and agreement stats",
            "system gold gamma", gold_required=False)
    p.add_argument("--dump", help="write the pool as JSON")

    p = add("infer", cmd_infer, "run combination inference",
            "system gold syntax gamma seed jobs", gold_required=False)
    p.add_argument("--engine", choices=["cs", "dp"], default="cs")
    p.add_argument("--scorer",
                   choices=["probsum", "svm", "perceptron-local", "perceptron-global"],
                   default="probsum")
    p.add_argument("--scope", choices=["pred", "sentence"], default="sentence",
                   help="rules of engine=dp: 1+2 per predicate, or 1+2+5 over the sentence")
    p.add_argument("--constraints", default=None, metavar="SPEC",
                   help='rules of engine=cs, e.g. "1+2" or "1+2+3:soft=0.5"; default 1+2+5+6')
    p.add_argument("--bias", type=float, default=DEFAULT_BIAS,
                   help="score credited per unselected candidate (O)")
    p.add_argument("--model", help="trained model file (engine=dp)")
    p.add_argument("--bootstrap", type=int, default=DEFAULT_BOOTSTRAP,
                   help="bootstrap resamples when scoring against gold")
    p.add_argument("--node-budget", type=int, default=None,
                   help="abort exact search beyond this many nodes per sentence")
    p.add_argument("--trace", action="store_true",
                   help="print visited-node counts per sentence (engine=cs)")
    p.add_argument("--out", required=True, help="predicted props file")
    p.add_argument("--report", help="also write the score report as CSV (needs --gold)")

    p = add("train", cmd_train, "train a candidate-scoring model",
            "system gold syntax gamma jobs")
    p.add_argument("--scorer", choices=["svm", "perceptron-local", "perceptron-global"],
                   required=True)
    p.add_argument("--features", default="all",
                   help='groups: "all", "FS1,FS3", or cumulative "FS1-FS4"')
    p.add_argument("--degree", type=int, default=DEFAULT_DEGREE, help="kernel degree")
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS,
                   help="training epochs (perceptrons)")
    p.add_argument("--C", type=float, default=DEFAULT_C, help="SVM soft-margin C")
    p.add_argument("--scope", choices=["pred", "sentence"], default="pred",
                   help="inference scope for global feedback")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="tail fraction of examples held out for epoch selection")
    p.add_argument("--out", required=True, help="model file")

    p = add("sweep", cmd_sweep, "precision/recall tradeoff over the bias O",
            "system gold gamma")
    p.add_argument("--constraints", default=None, metavar="SPEC")
    p.add_argument("--o-values", default=None,
                   help="comma-separated grid; default 0,0.05,...,1.0")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--out", required=True, help="CSV output (O,precision,recall,f1)")

    p = add("curves", cmd_curves, "rejection curve of calibrated probabilities",
            "system gold gamma")
    p.add_argument("--out", required=True, help="CSV output (rejection_pct,accuracy)")

    p = add("oracle", cmd_oracle, "oracle upper bounds and baseline combiners", "system gold")
    p.add_argument("--out", help="also write the report here")

    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic collector paused, then collect once.

    A command makes no reference cycles that grow with its input, so
    reference counting frees its objects as it goes and the pause costs no
    memory; the one collection at the end frees the few cycles it did make
    and lets the interpreter trim its free lists.  The caller's heap is
    frozen for the command, so that collection scans only the command's
    objects; a caller that froze its heap itself keeps that freeze as it
    was.  The caller's collector state is restored on every exit.
    """
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    if not frozen:
        gc.freeze()
    gc.disable()
    try:
        return _run(argv)
    finally:
        gc.collect()
        if not frozen:
            gc.unfreeze()
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    subparsers = next(a for a in parser._actions if a.dest == "command")
    try:
        _check_numeric_options(args)
        _check_options_act(args, subparsers.choices[args.command])
        return args.func(args)
    except (FormatError, SerializationError, AlignmentError, OSError) as exc:
        print(f"srlcomb: {exc}", file=sys.stderr)
        return 2
    except ModelMismatchError as exc:
        print(f"srlcomb: {exc}", file=sys.stderr)
        return 3
    except InferenceTimeout as exc:
        print(f"srlcomb: {exc} (best-so-far is nonoptimal)", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
