"""Command-line entry point exposing the whole pipeline.

Subcommands map one-to-one onto pipeline stages: synth, train, classify,
eval, compare-baseline, investigate, cluster-report. Results go to standard
output or files; diagnostics go to standard error. Exit codes: 0 success,
1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from .classifier import classify
from .clusterer import (
    DEFAULT_EPS_SCHEDULE,
    DEFAULT_MIN_PTS,
    class_matrix,
    cluster_report_csv,
    validate_eps_schedule,
)
from .errors import OpsigError, check_integer
from .evaluation import (
    DEFAULT_K,
    EvalConfig,
    baseline_comparison,
    family_similarity_table,
    render_summary,
    run_crossval,
    write_crossval_reports,
)
from .ingest import SAMPLE_DIALECTS, OpcodeSequence, load_corpus, parse_sample_file
from .opgraph import DEFAULT_RETAIN_FRACTION, check_retain_fraction, code_corpus, graph_for_sequence
from .signatures import (
    DEFAULT_SEED,
    SignatureDatabase,
    build_database,
    class_rows,
    load_database,
    save_database,
)
from .synthcorpus import DEFAULT_CONFIG, generate_corpus, write_corpus


def _flag(parse: Callable[[str], Any], check: Callable[[Any], Any]) -> Callable[[str], Any]:
    """An argparse ``type`` giving ``check(parse(text))``; a ``ValueError`` is a usage error."""
    def convert(text: str) -> Any:
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _number(text: str) -> int | float | str:
    """``text`` as an ``int``, else as a ``float``, else as itself, for a setting check to judge."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


_RETAIN = _flag(float, check_retain_fraction)
_EPS = _flag(lambda text: [float(value) for value in text.split(",")], validate_eps_schedule)
_MIN_PTS = _flag(_number, lambda value: check_integer("min_pts", value, 1))
_SEED = _flag(_number, lambda value: check_integer("seed", value, 0))
_K = _flag(_number, lambda value: check_integer("k", value, 2))


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retain", type=_RETAIN, default=DEFAULT_RETAIN_FRACTION,
                        help="bigram retention fraction (default %(default)s)")
    eps_default = ",".join(map(str, DEFAULT_EPS_SCHEDULE))
    parser.add_argument("--eps", type=_EPS, default=DEFAULT_EPS_SCHEDULE,
                        metavar="E1,E2,...",
                        help=f"ascending eps schedule (default {eps_default})")
    parser.add_argument("--min-pts", type=_MIN_PTS, default=DEFAULT_MIN_PTS,
                        help="DBSCAN core threshold (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsig",
        description="Opcode-graph signature pipeline: synthesize, train, classify, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate the default synthetic corpus")
    p_synth.add_argument("--out", required=True, help="corpus output directory")
    p_synth.add_argument("--seed", type=_SEED, default=DEFAULT_SEED)
    p_synth.set_defaults(func=_cmd_synth)

    p_train = sub.add_parser("train", help="build a signature database from a corpus")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--db", required=True, help="output database path")
    _add_pipeline_flags(p_train)
    p_train.add_argument("--seed", type=_SEED, default=DEFAULT_SEED)
    p_train.set_defaults(func=_cmd_train)

    p_classify = sub.add_parser("classify", help="classify one sample against a database")
    p_classify.add_argument("--db", required=True)
    p_classify.add_argument("--input", required=True, help="sample file")
    p_classify.add_argument("--dialect", choices=SAMPLE_DIALECTS,
                            default="lines", help="input format (default %(default)s)")
    p_classify.set_defaults(func=_cmd_classify)

    for name, func, help_text in (
        ("eval", _cmd_eval, "k-fold cross-validation on a corpus"),
        ("compare-baseline", _cmd_compare, "clustered vs monolithic signatures on identical folds"),
    ):
        p_fold = sub.add_parser(name, help=help_text)
        p_fold.add_argument("--corpus", required=True)
        p_fold.add_argument("--out", required=True, help="report output directory")
        p_fold.add_argument("--k", type=_K, default=DEFAULT_K)
        p_fold.add_argument("--seed", type=_SEED, default=DEFAULT_SEED)
        _add_pipeline_flags(p_fold)
        p_fold.set_defaults(func=func)

    p_inv = sub.add_parser("investigate", help="pairwise class similarity table")
    p_inv.add_argument("--corpus", required=True)
    p_inv.add_argument("--retain", type=_RETAIN, default=DEFAULT_RETAIN_FRACTION)
    p_inv.add_argument("--out", default=None, help="optional directory for the CSV")
    p_inv.set_defaults(func=_cmd_investigate)

    p_rep = sub.add_parser("cluster-report",
                           help="clusters per family across eps settings")
    p_rep.add_argument("--corpus", required=True)
    _add_pipeline_flags(p_rep)
    p_rep.set_defaults(func=_cmd_cluster_report)

    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    config = replace(DEFAULT_CONFIG, seed=args.seed)
    samples, manifest = generate_corpus(config)
    root = write_corpus(samples, manifest, args.out)
    print(f"wrote {len(samples)} samples to {root}", file=sys.stderr)
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    samples = load_corpus(args.corpus)
    db = build_database(
        samples,
        retain_fraction=args.retain,
        eps_schedule=args.eps,
        min_pts=args.min_pts,
        seed=args.seed,
    )
    save_database(db, args.db)
    print(
        f"trained {len(db.signatures)} signatures over {len(db.class_labels)} classes "
        f"(vocabulary size {db.vocabulary.size}) -> {args.db}",
        file=sys.stderr,
    )
    _note_unsigned_classes(samples, db)
    return 0


def _note_unsigned_classes(samples: Sequence[OpcodeSequence], db: SignatureDatabase) -> None:
    """One note on standard error per class of ``samples`` that ``db`` holds no signature for."""
    for label in sorted({sample.label for sample in samples} - set(db.class_labels)):
        print(f"note: class {label!r} has no retained bigram, so it has no signature",
              file=sys.stderr)


def _cmd_classify(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    seq = parse_sample_file(args.input, dialect=args.dialect)
    graph, dropped = graph_for_sequence(seq, db.vocabulary)
    if dropped:
        print(f"note: {dropped} bigram occurrences outside the vocabulary", file=sys.stderr)
    prediction = classify(graph, db, sample_id=seq.sample_id)
    print(prediction.to_row())
    return 0


def _run_dir(out: str, seed: int) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return Path(out) / f"{stamp}-seed{seed}"


def _eval_config(args: argparse.Namespace) -> EvalConfig:
    return EvalConfig(
        retain_fraction=args.retain,
        eps_schedule=tuple(args.eps),
        min_pts=args.min_pts,
    )


def _cmd_eval(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    result = run_crossval(corpus, args.k, args.seed, _eval_config(args))
    rundir = _run_dir(args.out, args.seed)
    write_crossval_reports(result, rundir)
    print(render_summary(result), end="")
    print(f"reports written to {rundir}", file=sys.stderr)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    comparison = baseline_comparison(corpus, args.k, args.seed, _eval_config(args))
    rundir = _run_dir(args.out, args.seed)
    write_crossval_reports(comparison.clustered, rundir, prefix="clustered_")
    write_crossval_reports(comparison.monolithic, rundir, prefix="monolithic_")
    print(render_summary(comparison.clustered, title="clustered"), end="")
    print(render_summary(comparison.monolithic, title="monolithic"), end="")
    print(f"macro_tpr_delta={comparison.macro_tpr_delta:+.4f}")
    print(f"reports written to {rundir}", file=sys.stderr)
    return 0


def _cmd_investigate(args: argparse.Namespace) -> int:
    samples = load_corpus(args.corpus)
    db = build_database(samples, retain_fraction=args.retain, monolithic=True)
    _note_unsigned_classes(samples, db)
    text = family_similarity_table(db).to_csv()
    print(text, end="")
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "family_similarity.csv").write_text(text, encoding="utf-8")
        print(f"table written to {outdir / 'family_similarity.csv'}", file=sys.stderr)
    return 0


def _cmd_cluster_report(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    vocab, classes = class_rows(code_corpus(corpus), range(len(corpus)), args.retain)
    matrices = {label: class_matrix(rows, vocab) for label, rows in classes}
    print(cluster_report_csv(matrices, args.eps, args.min_pts), end="")
    return 0


def dispatch(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OpsigError, OSError, MemoryError) as err:
        # a MemoryError raised by the interpreter itself often has no text
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
