import csv
import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

import opsig
from opsig import evaluation, signatures
from opsig.errors import EmptySampleError, FoldPlanError, OpsigError, SimilarityTableError
from opsig.evaluation import (
    ConfusionMatrix,
    EvalConfig,
    MetricsReport,
    SimilarityTable,
    baseline_comparison,
    binary_from_multiclass,
    family_similarity_table,
    render_summary,
    run_crossval,
    stratified_kfold,
    write_crossval_reports,
)
from opsig.ingest import OpcodeSequence
from opsig.signatures import build_database, save_database
from opsig.synthcorpus import (
    CorpusConfig,
    default_alphabet,
    generate_corpus,
    make_family_model,
    sample_sequence,
)


def constant_corpus():
    """Every class is identical copies of one distinctive sequence."""
    patterns = {
        "benign": ("XOR", "NOP") * 12,
        "famA": ("MOV", "PUSH") * 12,
        "famB": ("CALL", "RET") * 12,
    }
    corpus = []
    for label, opcodes in patterns.items():
        for i in range(10):
            corpus.append(OpcodeSequence(f"{label}-{i}", opcodes, label))
    return corpus


def model_corpus(per_class=10, length=900, seed_base=500):
    """One Markov source per class: a single sub-family each."""
    alphabet = default_alphabet(18)
    corpus = []
    for f, label in enumerate(("benign", "famA", "famB")):
        model = make_family_model(alphabet, [seed_base, f], family_label=label)
        for k in range(per_class):
            corpus.append(
                sample_sequence(model, length, [seed_base + 1, f, k], sample_id=f"{label}-{k}")
            )
    return corpus


class TestStratifiedKfold:
    def _corpus(self, sizes):
        corpus = []
        for label, n in sizes.items():
            for i in range(n):
                corpus.append(OpcodeSequence(f"{label}-{i}", ("MOV", "PUSH"), label))
        return corpus

    def test_even_split(self):
        plan = stratified_kfold(self._corpus({"a": 10, "b": 10}), k=5, seed=1)
        for label in ("a", "b"):
            folds = list(plan.assignments[label].values())
            assert sorted(np.bincount(folds, minlength=5).tolist()) == [2] * 5

    def test_remainder_rule(self):
        plan = stratified_kfold(self._corpus({"a": 11}), k=5, seed=1)
        sizes = np.bincount(list(plan.assignments["a"].values()), minlength=5)
        assert sorted(sizes.tolist(), reverse=True) == [3, 2, 2, 2, 2]

    def test_deterministic(self):
        corpus = self._corpus({"a": 9, "b": 7})
        assert stratified_kfold(corpus, 3, 42) == stratified_kfold(corpus, 3, 42)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            stratified_kfold(self._corpus({"a": 4, "b": 4}), 2, -1)

    def test_seed_changes_assignment(self):
        corpus = self._corpus({"a": 30})
        a = stratified_kfold(corpus, 5, 1)
        b = stratified_kfold(corpus, 5, 2)
        assert a.assignments != b.assignments

    def test_small_class_rejected_with_name(self):
        corpus = self._corpus({"big": 10, "tiny": 3})
        with pytest.raises(FoldPlanError, match="tiny"):
            stratified_kfold(corpus, k=5)

    def test_folds_partition_each_class(self):
        corpus = self._corpus({"a": 13, "b": 8})
        plan = stratified_kfold(corpus, 4, 3)
        for label, n in (("a", 13), ("b", 8)):
            assignment = plan.assignments[label]
            assert len(assignment) == n
            assert set(assignment.values()) <= set(range(4))

    @pytest.mark.parametrize("label", [None, ""], ids=["none", "empty"])
    def test_unlabeled_sample_rejected(self, label):
        unlabelled = [OpcodeSequence(f"x{i}", ("MOV", "PUSH"), label) for i in range(2)]
        corpus = self._corpus({"a": 2}) + unlabelled
        with pytest.raises(FoldPlanError, match="'x0' has no class label"):
            stratified_kfold(corpus, 2)
        with pytest.raises(FoldPlanError, match="'x0' has no class label"):
            run_crossval(corpus, k=2)


class TestConfusionMatrix:
    def test_tpr(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[8, 2], [1, 9]], dtype=np.int64))
        assert cm.tpr("a") == 0.8
        assert cm.tpr("b") == 0.9

    def test_csv_shape(self):
        cm = ConfusionMatrix(("a", "b"), np.array([[8, 2], [1, 9]], dtype=np.int64))
        lines = cm.to_csv().splitlines()
        assert lines[0] == "true/predicted,a,b"
        assert lines[1] == "a,8,2"

    def test_binary_collapse(self):
        labels = ("benign", "famA", "famB")
        counts = np.array([[7, 2, 1], [0, 9, 1], [1, 3, 6]], dtype=np.int64)
        binary = binary_from_multiclass(ConfusionMatrix(labels, counts))
        assert binary.labels == ("malware", "benign")
        # malware rows: famA + famB; malware -> malware counts all family columns
        assert binary.counts.tolist() == [[19, 1], [3, 7]]

    def test_binary_requires_benign(self):
        cm = ConfusionMatrix(("famA",), np.array([[3]], dtype=np.int64))
        with pytest.raises(OpsigError):
            binary_from_multiclass(cm)


class TestRunCrossval:
    def test_config_is_the_one_that_training_checks(self):
        assert opsig.EvalConfig is evaluation.EvalConfig is signatures.EvalConfig

    def test_identical_copies_give_perfect_scores(self):
        result = run_crossval(
            constant_corpus(), k=5, seed=7, config=EvalConfig(retain_fraction=1.0)
        )
        assert np.array_equal(
            result.multiclass.counts, np.diag([10, 10, 10])
        )
        assert result.metrics.macro_tpr == 1.0
        assert result.metrics.binary_tpr == 1.0
        assert result.metrics.binary_fpr == 0.0

    def test_every_sample_tested_once(self):
        corpus = model_corpus()
        result = run_crossval(corpus, k=5, seed=3, config=EvalConfig(retain_fraction=1.0))
        assert result.multiclass.total == len(corpus)
        assert result.multiclass.counts.sum(axis=1).tolist() == [10, 10, 10]

    def test_binary_is_collapse_of_multiclass(self):
        result = run_crossval(model_corpus(), k=5, seed=3)
        assert result.binary == binary_from_multiclass(result.multiclass)

    def test_seed_determinism_byte_for_byte(self):
        corpus = model_corpus()
        a = run_crossval(corpus, k=5, seed=9)
        b = run_crossval(corpus, k=5, seed=9)
        assert a.multiclass.to_csv() == b.multiclass.to_csv()
        assert a.binary.to_csv() == b.binary.to_csv()
        assert a.metrics.to_csv() == b.metrics.to_csv()
        assert render_summary(a) == render_summary(b)

    def test_sample_without_retained_bigram_left_out(self):
        # famA-odd shares no bigram with any other sample, so in its own test fold
        # none of its bigrams is retained and its graph is all zero
        corpus = constant_corpus() + [OpcodeSequence("famA-odd", ("ZZZ", "QQQ") * 6, "famA")]
        result = run_crossval(corpus, k=5, seed=7, config=EvalConfig(retain_fraction=1.0))
        assert result.diagnostics["empty_test_graphs"] == 1
        assert np.array_equal(result.multiclass.counts, np.diag([10, 10, 10]))
        assert "empty_test_graphs=1" in render_summary(result)

    def test_sample_without_opcodes_rejected(self):
        corpus = constant_corpus() + [OpcodeSequence("famA-empty", (), "famA")]
        with pytest.raises(EmptySampleError, match="famA-empty"):
            run_crossval(corpus, k=5, seed=7)

    @pytest.mark.parametrize("monolithic", [False, True])
    def test_bad_settings_rejected_in_both_modes(self, monolithic):
        config = EvalConfig(eps_schedule=(0.3, -1.0), min_pts=0, monolithic=monolithic)
        with pytest.raises(ValueError, match="eps values must lie in"):
            run_crossval(constant_corpus(), k=5, seed=7, config=config)
        config = replace(config, eps_schedule=(0.3,))
        with pytest.raises(ValueError, match="min_pts must be >= 1"):
            run_crossval(constant_corpus(), k=5, seed=7, config=config)

    @pytest.mark.parametrize("comparison", [False, True])
    @pytest.mark.parametrize(
        "setting",
        [
            {"retain_fraction": True},
            {"eps_schedule": (0.1, 0.01)},
            {"eps_schedule": 0.1},
            {"eps_schedule": None},
            {"eps_schedule": "0.1"},
            {"eps_schedule": {0.01, 0.1}},
            {"eps_schedule": frozenset({0.01, 0.1})},
            {"eps_schedule": {0.01: 1, 0.1: 2}},
            {"min_pts": 0},
            {"min_pts": 1.5},
            {"seed": -1},
            {"seed": 2.7},
        ],
    )
    def test_bad_setting_raised_before_coding(self, monkeypatch, comparison, setting):
        def no_coding(corpus):
            raise AssertionError("the corpus was coded before its settings were checked")

        monkeypatch.setattr(evaluation, "code_corpus", no_coding)
        fields = dict(setting)
        seed = fields.pop("seed", 7)
        run = baseline_comparison if comparison else run_crossval
        with pytest.raises(ValueError):
            run(constant_corpus(), k=5, seed=seed, config=EvalConfig(**fields))

    def test_corpus_without_bigrams_names_fold(self):
        corpus = [OpcodeSequence(f"{label}-{i}", ("MOV",), label)
                  for label in ("benign", "famA") for i in range(5)]
        with pytest.raises(OpsigError, match="fold 0 failed: cannot build a vocabulary"):
            run_crossval(corpus, k=5, seed=7)

    def test_fold_failure_names_fold(self):
        corpus = constant_corpus()
        # retain fraction so aggressive that some fold's vocabulary drops a class
        # entirely is hard to provoke; instead break by unique tiny class size
        with pytest.raises((FoldPlanError, OpsigError)):
            run_crossval(corpus[:9] + corpus[10:], k=10, seed=1)


class TestFamilySimilarityTable:
    def test_identical_classes_have_similarity_one(self):
        opcodes = ("MOV", "PUSH", "CALL") * 8
        corpus = [
            OpcodeSequence(f"a-{i}", opcodes, "famA") for i in range(3)
        ] + [
            OpcodeSequence(f"b-{i}", opcodes, "famB") for i in range(3)
        ]
        table = family_similarity_table(build_database(corpus, 1.0, monolithic=True))
        i, j = table.labels.index("famA"), table.labels.index("famB")
        assert table.values[i, j] == 1.0

    def test_symmetry_and_diagonal(self):
        table = family_similarity_table(build_database(model_corpus(), 1.0, monolithic=True))
        assert table.labels == ("benign", "famA", "famB")
        np.testing.assert_array_equal(table.values, table.values.T)
        assert np.isnan(np.diagonal(table.values)).all()
        first_row = table.to_csv().splitlines()[1].split(",")
        assert first_row[1] == "-"

    def test_requires_two_classes(self):
        corpus = [OpcodeSequence("x", ("MOV", "PUSH"), "famA")]
        with pytest.raises(SimilarityTableError, match=r"at least two classes"):
            family_similarity_table(build_database(corpus, 1.0, monolithic=True))

    def test_requires_one_signature_per_class(self):
        # famA holds two unrelated patterns, so clustering gives it two signatures
        patterns = {
            "famA": [("MOV", "PUSH") * 12, ("CALL", "RET") * 12],
            "famB": [("XOR", "NOP") * 12],
        }
        corpus = [
            OpcodeSequence(f"{label}-{p}-{i}", opcodes, label)
            for label, variants in patterns.items()
            for p, opcodes in enumerate(variants)
            for i in range(4)
        ]
        db = build_database(corpus, 1.0)
        assert len(db.by_class()["famA"]) == 2
        with pytest.raises(SimilarityTableError, match=r"one signature per class"):
            family_similarity_table(db)


class TestBaselineComparison:
    def test_single_subfamily_classes_match_exactly(self):
        # one source per class: clustering finds one cluster covering the class,
        # so clustered and monolithic signatures carry identical member sets
        corpus = model_corpus(per_class=10, length=1200)
        config = EvalConfig(retain_fraction=1.0, eps_schedule=(0.8,), min_pts=3)
        comparison = baseline_comparison(corpus, k=5, seed=11, config=config)
        assert comparison.clustered.multiclass == comparison.monolithic.multiclass
        assert comparison.macro_tpr_delta == 0.0

    def test_lanes_share_fold_plan(self):
        corpus = model_corpus(per_class=8)
        comparison = baseline_comparison(corpus, k=4, seed=2)
        assert comparison.clustered.multiclass.total == comparison.monolithic.multiclass.total
        assert comparison.clustered.seed == comparison.monolithic.seed == 2


class TestOneShotSchedule:
    """An eps schedule given as an iterator is read once, and trains as its list does."""

    @pytest.fixture(scope="class")
    def samples(self):
        return generate_corpus(CorpusConfig(
            families=2, subfamilies_per_family=2, samples_per_subfamily=6, benign_sources=2,
            samples_per_benign_source=5, length_range=(200, 400),
        ))[0]

    @staticmethod
    def reports(result):
        return (render_summary(result), result.multiclass.to_csv(), result.binary.to_csv(),
                result.metrics.to_csv(), result.diagnostics)

    def test_database_saves_the_same_bytes(self, samples, tmp_path):
        for name, schedule in (("list", [0.01, 0.1]), ("iterator", iter([0.01, 0.1]))):
            save_database(build_database(samples, eps_schedule=schedule), tmp_path / name)
        assert (tmp_path / "iterator").read_bytes() == (tmp_path / "list").read_bytes()

    def test_crossval_reports_the_same(self, samples):
        results = [run_crossval(samples, k=5, seed=7, config=EvalConfig(eps_schedule=schedule))
                   for schedule in ([0.01, 0.1], iter([0.01, 0.1]))]
        assert self.reports(results[1]) == self.reports(results[0])
        assert results[1].config.eps_schedule == (0.01, 0.1)

    def test_comparison_reports_the_same(self, samples):
        comparisons = [
            baseline_comparison(samples, k=5, seed=7, config=EvalConfig(eps_schedule=schedule))
            for schedule in ([0.01, 0.1], iter([0.01, 0.1]))
        ]
        for lane in ("clustered", "monolithic"):
            lanes = [getattr(comparison, lane) for comparison in comparisons]
            assert self.reports(lanes[1]) == self.reports(lanes[0])


@pytest.fixture(scope="module")
def default_comparison():
    return baseline_comparison(generate_corpus()[0], k=5, seed=7)


class TestDefaultCorpusPinned:
    """Seed-7 cross-validation of the default corpus, clustered and monolithic."""

    def test_results_pinned(self, default_comparison):
        # the clustered lane is run_crossval's default configuration
        lanes = {}
        for lane in ("clustered", "monolithic"):
            result = getattr(default_comparison, lane)
            lanes[lane] = {
                "labels": list(result.multiclass.labels),
                "multiclass": result.multiclass.counts.tolist(),
                "signatures_per_fold": result.diagnostics["signatures_per_fold"],
                "dropped_test_bigrams": result.diagnostics["dropped_test_bigrams"],
            }
        digest = hashlib.sha256(json.dumps(lanes, sort_keys=True).encode()).hexdigest()
        assert digest == "d8f960bb31885828cba4690089aca6f1f3f945a009d5c5e36c3f8525b4fc4b66"

    def test_no_empty_test_graphs(self, default_comparison):
        for result in (default_comparison.clustered, default_comparison.monolithic):
            assert result.diagnostics["empty_test_graphs"] == 0
            assert result.multiclass.total == 920


class TestReportWriting:
    def test_writes_expected_files(self, tmp_path):
        result = run_crossval(model_corpus(per_class=6), k=3, seed=4)
        written = write_crossval_reports(result, tmp_path / "run")
        names = sorted(p.name for p in written)
        assert names == [
            "binary_confusion.csv",
            "metrics.csv",
            "multiclass_confusion.csv",
            "summary.txt",
        ]
        for path in written:
            assert path.exists()
            assert path.read_text()

    def test_summary_mentions_config(self):
        result = run_crossval(model_corpus(per_class=6), k=3, seed=4)
        text = render_summary(result)
        assert "k=3 seed=4" in text
        assert "macro_tpr=" in text


class TestCsvQuoting:
    # a field with a comma, a quote, a carriage return or a line feed is quoted
    LABELS = ("benign", "a,b", 'c"d', "e\rf", "g\nh", "i\r\nj")

    @staticmethod
    def _rows(text):
        return list(csv.reader(io.StringIO(text, newline="")))

    def test_confusion_matrix(self):
        n = len(self.LABELS)
        matrix = ConfusionMatrix(self.LABELS, np.arange(n * n, dtype=np.int64).reshape(n, n))
        rows = self._rows(matrix.to_csv())
        assert rows[0] == ["true/predicted", *self.LABELS]
        assert rows[1:] == [[label, *map(str, matrix.counts[i])]
                            for i, label in enumerate(self.LABELS)]

    def test_metrics_report(self):
        per_class = {label: 0.5 for label in self.LABELS}
        rows = self._rows(MetricsReport(per_class, 0.5, 0.25, 0.0).to_csv())
        assert rows[4:] == [[f"tpr_{label}", "0.500000"] for label in sorted(self.LABELS)]

    def test_similarity_table(self):
        n = len(self.LABELS)
        rows = self._rows(SimilarityTable(self.LABELS, np.full((n, n), 0.5)).to_csv())
        assert rows[0] == ["family", *self.LABELS]
        assert [row[0] for row in rows[1:]] == list(self.LABELS)
        assert {len(row) for row in rows} == {n + 1}
