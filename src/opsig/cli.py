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
from typing import Sequence

from .classifier import classify
from .clusterer import (
    DEFAULT_EPS_SCHEDULE,
    DEFAULT_MIN_PTS,
    compute_distance_matrix,
    eps_setting_comparison,
    format_cluster_report,
    validate_eps_schedule,
)
from .errors import OpsigError
from .evaluation import (
    DEFAULT_K,
    EvalConfig,
    baseline_comparison,
    family_similarity_table,
    render_summary,
    run_crossval,
    write_crossval_reports,
)
from .ingest import load_corpus, parse_sample_file
from .opgraph import DEFAULT_RETAIN_FRACTION, code_corpus, graph_for_sequence, normalized_graph
from .signatures import DEFAULT_SEED, build_database, load_database, save_database
from .synthcorpus import DEFAULT_CONFIG, generate_corpus, write_corpus


def _retain_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid retain fraction {text!r}") from exc
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"retain fraction must lie in (0, 1], got {text}")
    return value


def _eps_schedule(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
        return validate_eps_schedule(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid eps schedule {text!r}: {exc}") from exc


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from exc


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"value must be >= 1, got {text}")
    return value


def _seed(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return value


def _fold_count(text: str) -> int:
    value = _positive_int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"k must be >= 2, got {text}")
    return value


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--retain", type=_retain_value, default=DEFAULT_RETAIN_FRACTION,
                        help="bigram retention fraction (default %(default)s)")
    parser.add_argument("--eps", type=_eps_schedule, default=DEFAULT_EPS_SCHEDULE,
                        metavar="E1,E2,...",
                        help="ascending eps schedule (default 0.01,0.1)")
    parser.add_argument("--min-pts", type=_positive_int, default=DEFAULT_MIN_PTS,
                        help="DBSCAN core threshold (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsig",
        description="Opcode-graph signature pipeline: synthesize, train, classify, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate the default synthetic corpus")
    p_synth.add_argument("--out", required=True, help="corpus output directory")
    p_synth.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_synth.set_defaults(func=_cmd_synth)

    p_train = sub.add_parser("train", help="build a signature database from a corpus")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--db", required=True, help="output database path")
    _add_pipeline_flags(p_train)
    p_train.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p_train.set_defaults(func=_cmd_train)

    p_classify = sub.add_parser("classify", help="classify one sample against a database")
    p_classify.add_argument("--db", required=True)
    p_classify.add_argument("--input", required=True, help="sample file")
    p_classify.add_argument("--dialect", choices=("lines", "linear-listing"),
                            default="lines", help="input format (default %(default)s)")
    p_classify.set_defaults(func=_cmd_classify)

    p_eval = sub.add_parser("eval", help="k-fold cross-validation on a corpus")
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument("--out", required=True, help="report output directory")
    p_eval.add_argument("--k", type=_fold_count, default=DEFAULT_K)
    p_eval.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_pipeline_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare-baseline",
                           help="clustered vs monolithic signatures on identical folds")
    p_cmp.add_argument("--corpus", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--k", type=_fold_count, default=DEFAULT_K)
    p_cmp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_pipeline_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_inv = sub.add_parser("investigate", help="pairwise class similarity table")
    p_inv.add_argument("--corpus", required=True)
    p_inv.add_argument("--retain", type=_retain_value, default=DEFAULT_RETAIN_FRACTION)
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
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    db = load_database(args.db)
    dialect = None if args.dialect == "lines" else args.dialect
    seq = parse_sample_file(args.input, dialect=dialect)
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
    db = build_database(load_corpus(args.corpus), retain_fraction=args.retain, monolithic=True)
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
    coded = code_corpus(corpus)
    vocab, slots = coded.vocabulary(range(len(corpus)), args.retain)
    by_label: dict[str, list[int]] = {}
    for i, sample in enumerate(corpus):
        by_label.setdefault(sample.label, []).append(i)
    matrices = {}
    for label, members in by_label.items():
        rows = coded.count_rows(members, slots)[0]
        ids = [corpus[i].sample_id for i in members]
        graphs = [(sample_id, normalized_graph(row, vocab)) for sample_id, row in zip(ids, rows)]
        matrices[label] = compute_distance_matrix(graphs)
    report = eps_setting_comparison(matrices, args.eps, args.min_pts)
    print(format_cluster_report(report), end="")
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
    except (OpsigError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
