"""Cross-validation harness, confusion matrices and comparison experiments.

The protocol: shuffle and split every class (benign included) into k folds,
train vocabulary and signatures on each fold's k-1 training portions only,
classify the combined held-out portion, and aggregate confusion counts over
all folds. Multi-class counts attribute families; the binary view collapses
every malware family into one "malware" class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .classifier import MALWARE_VERDICT, classify_batch
from .clusterer import compute_distance_matrix
from .csvtext import csv_text
from .errors import (
    EmptyCorpusError,
    EmptyGraphError,
    FoldPlanError,
    OpsigError,
    SimilarityTableError,
    check_integer,
)
from .ingest import BENIGN_LABEL, OpcodeSequence
from .opgraph import CodedCorpus, code_corpus, normalized_graphs
from .signatures import DEFAULT_SEED, EvalConfig, SignatureDatabase, train_database

DEFAULT_K = 5


@dataclass(frozen=True)
class FoldPlan:
    """Per-class fold assignment: label -> sample_id -> fold index."""

    k: int
    seed: int
    assignments: dict[str, dict[str, int]]


def stratified_kfold(
    corpus: Sequence[OpcodeSequence], k: int = DEFAULT_K, seed: int = DEFAULT_SEED
) -> FoldPlan:
    """Seeded per-class shuffle with round-robin fold assignment.

    Within each class the fold sizes differ by at most one.
    """
    k = check_integer("k", k, 2)
    seed = check_integer("seed", seed, 0)
    by_label: dict[str, list[str]] = {}
    seen: set[str] = set()
    for sample in corpus:
        if not sample.label:
            raise FoldPlanError(f"sample {sample.sample_id!r} has no class label")
        if sample.sample_id in seen:
            raise FoldPlanError(f"duplicate sample id {sample.sample_id!r} in corpus")
        seen.add(sample.sample_id)
        by_label.setdefault(sample.label, []).append(sample.sample_id)
    if not by_label:
        raise EmptyCorpusError("corpus has no samples")
    rng = np.random.default_rng(seed)
    assignments: dict[str, dict[str, int]] = {}
    for label in sorted(by_label):
        ids = sorted(by_label[label])
        if len(ids) < k:
            raise FoldPlanError(f"class {label!r} has {len(ids)} samples, fewer than k={k}")
        order = rng.permutation(len(ids))
        assignments[label] = {ids[pos]: slot % k for slot, pos in enumerate(order)}
    return FoldPlan(k, seed, assignments)


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Counts[true, predicted] over an ordered label list."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        shape = (len(self.labels), len(self.labels))
        if self.counts.shape != shape:
            raise ValueError(f"counts shape {self.counts.shape} != {shape}")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConfusionMatrix):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.counts, other.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def tpr(self, label: str) -> float:
        row = self.labels.index(label)
        row_sum = int(self.counts[row].sum())
        if row_sum == 0:
            return 0.0
        return float(self.counts[row, row]) / row_sum

    def to_csv(self) -> str:
        rows = [("true/predicted", *self.labels)]
        for row, label in enumerate(self.labels):
            rows.append((label, *map(int, self.counts[row])))
        return csv_text(rows)


def binary_from_multiclass(matrix: ConfusionMatrix) -> ConfusionMatrix:
    """Collapse every malware family: detection counts regardless of family."""
    if BENIGN_LABEL not in matrix.labels:
        raise OpsigError(f"multi-class matrix has no {BENIGN_LABEL!r} class")
    benign = matrix.labels.index(BENIGN_LABEL)
    malware = [i for i in range(len(matrix.labels)) if i != benign]
    counts = np.zeros((2, 2), dtype=np.int64)
    counts[0, 0] = matrix.counts[np.ix_(malware, malware)].sum()
    counts[0, 1] = matrix.counts[malware, benign].sum()
    counts[1, 0] = matrix.counts[benign, malware].sum()
    counts[1, 1] = matrix.counts[benign, benign]
    return ConfusionMatrix((MALWARE_VERDICT, BENIGN_LABEL), counts)


@dataclass(frozen=True)
class MetricsReport:
    """Headline rates: per-class TPR, macro TPR, binary TPR and FPR."""

    per_class_tpr: dict[str, float]
    macro_tpr: float
    binary_tpr: float
    binary_fpr: float

    @classmethod
    def from_matrices(
        cls, multiclass: ConfusionMatrix, binary: ConfusionMatrix
    ) -> "MetricsReport":
        per_class = {label: multiclass.tpr(label) for label in multiclass.labels}
        macro = float(np.mean(list(per_class.values())))
        binary_tpr = binary.tpr(MALWARE_VERDICT)
        binary_fpr = 1.0 - binary.tpr(BENIGN_LABEL)
        return cls(per_class, macro, binary_tpr, binary_fpr)

    def to_csv(self) -> str:
        rows = [
            ("metric", "value"),
            ("macro_tpr", f"{self.macro_tpr:.6f}"),
            ("binary_tpr", f"{self.binary_tpr:.6f}"),
            ("binary_fpr", f"{self.binary_fpr:.6f}"),
        ]
        for label in sorted(self.per_class_tpr):
            rows.append((f"tpr_{label}", f"{self.per_class_tpr[label]:.6f}"))
        return csv_text(rows)


@dataclass(frozen=True, eq=False)
class CrossvalResult:
    multiclass: ConfusionMatrix
    binary: ConfusionMatrix
    metrics: MetricsReport
    k: int
    seed: int
    config: EvalConfig
    diagnostics: dict[str, object] = field(default_factory=dict)


def run_crossval(
    corpus: Sequence[OpcodeSequence],
    k: int = DEFAULT_K,
    seed: int = DEFAULT_SEED,
    config: EvalConfig | None = None,
) -> CrossvalResult:
    """Aggregated k-fold evaluation; every sample is tested exactly once.

    A test sample with an all-zero graph (no bigram its fold retains) is left
    out of the matrices and counted in ``diagnostics["empty_test_graphs"]``.
    Every setting is checked before the corpus is coded.
    """
    config = (config or EvalConfig()).checked(seed)
    plan = stratified_kfold(corpus, k, seed)
    return _crossval(plan, code_corpus(corpus), config)


def _crossval(plan: FoldPlan, coded: CodedCorpus, config: EvalConfig) -> CrossvalResult:
    """``run_crossval`` of the corpus coded as ``coded``, over the folds of ``plan``."""
    ids, truth = coded.sample_ids, coded.labels
    folds = [plan.assignments[label][sample_id] for sample_id, label in zip(ids, truth)]
    labels = tuple(sorted(set(truth)))
    if BENIGN_LABEL not in labels:  # checked before any fold trains, as the binary view needs it
        raise OpsigError(f"corpus has no {BENIGN_LABEL!r} class, which the binary view needs")
    position = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    dropped_test = empty_test = 0
    signatures_per_fold: list[int] = []
    for fold in range(plan.k):
        try:
            train = [i for i in range(len(folds)) if folds[i] != fold]
            test = [i for i in range(len(folds)) if folds[i] == fold]
            db = train_database(coded, train, config, plan.seed)
            rows, dropped = coded.count_rows(test, db.vocabulary)
            dropped_test += int(dropped.sum())
            batch = [
                (ids[i], graph)
                for i, graph in zip(test, normalized_graphs(rows, db.vocabulary))
            ]
            predictions = classify_batch(batch, db)
            for i, prediction in zip(test, predictions):
                if isinstance(prediction, EmptyGraphError):
                    empty_test += 1
                    continue
                if isinstance(prediction, OpsigError):
                    raise prediction
                counts[position[truth[i]], position[prediction.predicted_label]] += 1
            signatures_per_fold.append(len(db.signatures))
        except OpsigError as err:
            raise OpsigError(f"fold {fold} failed: {err}") from err
    multiclass = ConfusionMatrix(labels, counts)
    binary = binary_from_multiclass(multiclass)
    metrics = MetricsReport.from_matrices(multiclass, binary)
    diagnostics = {
        "dropped_test_bigrams": int(dropped_test),
        "empty_test_graphs": empty_test,
        "signatures_per_fold": signatures_per_fold,
    }
    return CrossvalResult(multiclass, binary, metrics, plan.k, plan.seed, config, diagnostics)


@dataclass(frozen=True, eq=False)
class SimilarityTable:
    """Pairwise class similarities from monolithic per-class signatures."""

    labels: tuple[str, ...]
    values: np.ndarray  # similarity = 1 - distance; diagonal is nan

    def to_csv(self) -> str:
        rows = [("family", *self.labels)]
        for row, label in enumerate(self.labels):
            cells = [
                "-" if row == col else f"{self.values[row, col]:.3f}"
                for col in range(len(self.labels))
            ]
            rows.append((label, *cells))
        return csv_text(rows)


def family_similarity_table(db: SignatureDatabase) -> SimilarityTable:
    """All pairwise class similarities of a database with one signature per class.

    Build the database with ``build_database(corpus, retain_fraction,
    monolithic=True)``; classes appear in sorted label order.
    """
    labels = db.class_labels
    if len(labels) < 2:
        raise SimilarityTableError("similarity table needs at least two classes")
    if len(db.signatures) != len(labels):
        raise SimilarityTableError("similarity table needs exactly one signature per class")
    by_class = db.by_class()
    graphs = [(label, by_class[label][0].graph) for label in labels]
    values = 1.0 - compute_distance_matrix(graphs).values
    np.fill_diagonal(values, np.nan)
    return SimilarityTable(labels, values)


@dataclass(frozen=True, eq=False)
class BaselineComparison:
    """Clustered-signature pipeline vs the single-signature baseline."""

    clustered: CrossvalResult
    monolithic: CrossvalResult
    macro_tpr_delta: float  # clustered minus monolithic


def baseline_comparison(
    corpus: Sequence[OpcodeSequence],
    k: int = DEFAULT_K,
    seed: int = DEFAULT_SEED,
    config: EvalConfig | None = None,
) -> BaselineComparison:
    """Evaluate identical folds twice, clustered and monolithic, from one plan and one coding."""
    config = (config or EvalConfig()).checked(seed)
    plan = stratified_kfold(corpus, k, seed)
    coded = code_corpus(corpus)
    clustered = _crossval(plan, coded, replace(config, monolithic=False))
    monolithic = _crossval(plan, coded, replace(config, monolithic=True))
    delta = clustered.metrics.macro_tpr - monolithic.metrics.macro_tpr
    return BaselineComparison(clustered, monolithic, delta)


def render_summary(result: CrossvalResult, title: str = "crossval") -> str:
    """Human-readable, deterministic run summary."""
    config = result.config
    lines = [
        f"{title} summary",
        (
            f"k={result.k} seed={result.seed} retain={config.retain_fraction:g} "
            f"eps={','.join(f'{e:g}' for e in config.eps_schedule)} "
            f"min_pts={config.min_pts} "
            f"mode={'monolithic' if config.monolithic else 'clustered'}"
        ),
        f"test_samples={result.multiclass.total}",
        f"binary_tpr={result.metrics.binary_tpr:.4f} binary_fpr={result.metrics.binary_fpr:.4f}",
        f"macro_tpr={result.metrics.macro_tpr:.4f}",
    ]
    for label in result.multiclass.labels:
        lines.append(f"tpr[{label}]={result.metrics.per_class_tpr[label]:.4f}")
    for key in ("dropped_test_bigrams", "empty_test_graphs"):
        lines.append(f"{key}={result.diagnostics.get(key, 0)}")
    return "\n".join(lines) + "\n"


def write_crossval_reports(
    result: CrossvalResult, outdir: str | Path, prefix: str = ""
) -> list[Path]:
    """Write confusion matrices, metrics and a text summary under ``outdir``."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, text in (
        ("multiclass_confusion.csv", result.multiclass.to_csv()),
        ("binary_confusion.csv", result.binary.to_csv()),
        ("metrics.csv", result.metrics.to_csv()),
        ("summary.txt", render_summary(result, title=prefix.rstrip("_") or "crossval")),
    ):
        path = outdir / f"{prefix}{name}"
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
