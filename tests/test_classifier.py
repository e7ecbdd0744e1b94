import csv
import io

import numpy as np
import pytest

from opsig.classifier import RANKING_LENGTH, classify, classify_batch, classify_binary
from opsig.errors import (
    EmptyDatabaseError,
    EmptyGraphError,
    OpsigError,
    VocabularyMismatchError,
)
from opsig.opgraph import OpcodeGraph, build_graph, count_bigrams, graph_distance
from opsig.signatures import Signature, SignatureDatabase, build_database
from opsig.synthcorpus import default_alphabet, make_family_model, sample_sequence

from helpers import make_vocab, random_graph


def db_from_graphs(entries, vocab, metadata=None):
    """entries: list of (signature_id, label, graph)."""
    sigs = tuple(
        Signature(sid, label, graph, 1, sid.split("/")[1]) for sid, label, graph in entries
    )
    return SignatureDatabase(vocab, sigs, metadata or {})


class TestClassify:
    def test_exact_match_wins_with_zero_distance(self):
        rng = np.random.default_rng(0)
        vocab = make_vocab(6)
        target = random_graph(vocab, rng)
        db = db_from_graphs(
            [
                ("famA/r1/0", "famA", target),
                ("famB/r1/0", "famB", random_graph(vocab, rng)),
            ],
            vocab,
        )
        pred = classify(target, db, "x")
        assert pred.predicted_label == "famA"
        assert pred.best_signature_id == "famA/r1/0"
        assert pred.best_distance == 0.0

    def test_argmin_over_distances(self):
        rng = np.random.default_rng(1)
        vocab = make_vocab(8)
        sample = random_graph(vocab, rng)
        entries = [
            (f"fam{i}/r1/0", f"fam{i}", random_graph(vocab, rng)) for i in range(5)
        ]
        db = db_from_graphs(entries, vocab)
        pred = classify(sample, db, "x")
        manual = min(
            ((graph_distance(sample, g).distance, sid) for sid, _, g in entries),
            key=lambda t: (t[0], t[1]),
        )
        assert pred.best_signature_id == manual[1]
        assert pred.best_distance == pytest.approx(manual[0], abs=1e-15)
        assert [d for _, d in pred.ranking] == sorted(d for _, d in pred.ranking)

    def test_tie_broken_by_signature_id(self):
        rng = np.random.default_rng(2)
        vocab = make_vocab(5)
        shared = random_graph(vocab, rng)
        sample = random_graph(vocab, rng)
        db = db_from_graphs(
            [("zfam/r1/0", "zfam", shared), ("afam/r1/0", "afam", shared)], vocab
        )
        pred = classify(sample, db, "x")
        assert pred.best_signature_id == "afam/r1/0"
        assert pred.predicted_label == "afam"

    def test_ranking_cut_inside_a_tie_keeps_the_lowest_ids(self):
        rng = np.random.default_rng(14)
        vocab = make_vocab(5)
        shared = random_graph(vocab, rng)
        ids = [f"fam{i:02d}/r1/0" for i in range(RANKING_LENGTH + 3)]
        db = db_from_graphs([(sid, sid.split("/")[0], shared) for sid in reversed(ids)], vocab)
        sample = random_graph(vocab, rng)
        pred = classify(sample, db, "x")
        distance = graph_distance(shared, sample).distance
        assert pred.ranking == tuple((sid, distance) for sid in ids[:RANKING_LENGTH])

    @pytest.mark.parametrize("count", range(1, RANKING_LENGTH + 3))
    def test_ranking_length(self, count):
        assert RANKING_LENGTH >= 2  # a ranking of two signatures shows the runner-up
        rng = np.random.default_rng(15)
        vocab = make_vocab(4)
        db = db_from_graphs(
            [(f"f{i}/r1/0", f"f{i}", random_graph(vocab, rng)) for i in range(count)], vocab
        )
        pred = classify(random_graph(vocab, rng), db, "x")
        assert len(pred.ranking) == min(RANKING_LENGTH, count)

    def test_empty_database_rejected(self):
        rng = np.random.default_rng(3)
        vocab = make_vocab(4)
        db = SignatureDatabase(vocab, (), {})
        with pytest.raises(EmptyDatabaseError):
            classify(random_graph(vocab, rng), db)

    def test_vocabulary_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        vocab = make_vocab(4)
        db = db_from_graphs([("f/r1/0", "f", random_graph(vocab, rng))], vocab)
        with pytest.raises(VocabularyMismatchError):
            classify(random_graph(make_vocab(5), rng), db)

    def test_similarity_argmax_equals_distance_argmin(self):
        rng = np.random.default_rng(5)
        vocab = make_vocab(7)
        sample = random_graph(vocab, rng)
        db = db_from_graphs(
            [(f"f{i}/r1/0", f"f{i}", random_graph(vocab, rng)) for i in range(6)], vocab
        )
        pred = classify(sample, db, "x")
        by_similarity = max(pred.ranking, key=lambda e: (1.0 - e[1], e[0]))
        assert by_similarity[0] == pred.best_signature_id

    def test_planted_two_family_attribution(self):
        alphabet = default_alphabet(20)
        train, test = [], []
        for f, lab in enumerate(("famA", "famB")):
            model = make_family_model(alphabet, [300, f], family_label=lab)
            for k in range(8):
                train.append(sample_sequence(model, 1200, [301, f, k], sample_id=f"{lab}-tr{k}"))
            for k in range(4):
                test.append(sample_sequence(model, 1200, [302, f, k], sample_id=f"{lab}-te{k}"))
        db = build_database(train, retain_fraction=1.0)
        for seq in test:
            graph, _ = build_graph(count_bigrams(seq), db.vocabulary)
            pred = classify(graph, db, seq.sample_id)
            assert pred.predicted_label == seq.label
            # exhaustive oracle over every signature
            manual = min(
                (
                    (graph_distance(graph, sig.graph).distance, sig.signature_id)
                    for sig in db.signatures
                ),
                key=lambda t: (t[0], t[1]),
            )
            assert pred.best_signature_id == manual[1]

    def test_singleton_training_sample_classifies_to_itself(self):
        vocab = make_vocab(4)
        rng = np.random.default_rng(6)
        graphs = [random_graph(vocab, rng) for _ in range(3)]
        db = db_from_graphs(
            [(f"f{i}/singleton/0", f"f{i}", g) for i, g in enumerate(graphs)], vocab
        )
        for i, graph in enumerate(graphs):
            pred = classify(graph, db, f"s{i}")
            assert pred.predicted_label == f"f{i}"
            assert pred.best_distance == 0.0


class TestEmptyGraph:
    """A graph with no weight on any retained bigram has no nearest signature."""

    def _setup(self):
        rng = np.random.default_rng(14)
        vocab = make_vocab(5)
        db = db_from_graphs(
            [("benign/r1/0", "benign", random_graph(vocab, rng, zero_row_prob=0.6)),
             ("famA/r1/0", "famA", random_graph(vocab, rng))],
            vocab,
        )
        empty = OpcodeGraph.from_vector(vocab, np.zeros(len(vocab.flat_cells)))
        return db, empty, random_graph(vocab, rng)

    def test_classify_rejects_all_zero_graph(self):
        db, empty, _ = self._setup()
        with pytest.raises(EmptyGraphError, match=r"sample 'x' has no retained bigram"):
            classify(empty, db, "x")
        with pytest.raises(EmptyGraphError):
            classify_binary(empty, db, "x")

    def test_batch_returns_error_in_slot(self):
        db, empty, graph = self._setup()
        results = classify_batch([("a", graph), ("x", empty), ("b", graph)], db)
        assert isinstance(results[1], EmptyGraphError)
        assert results[0] == classify(graph, db, "a")
        assert results[2] == classify(graph, db, "b")


class TestClassifyBinary:
    def _db(self):
        rng = np.random.default_rng(7)
        vocab = make_vocab(6)
        return (
            db_from_graphs(
                [
                    ("benign/r1/0", "benign", random_graph(vocab, rng)),
                    ("famA/r1/0", "famA", random_graph(vocab, rng)),
                    ("famB/r1/0", "famB", random_graph(vocab, rng)),
                ],
                vocab,
            ),
            vocab,
        )

    def test_benign_winner_is_benign(self):
        db, _ = self._db()
        benign_graph = db.signatures[db.class_labels.index("benign")].graph
        verdict, pred = classify_binary(benign_graph, db, "x")
        assert verdict == "benign"
        assert pred.predicted_label == "benign"

    def test_any_family_winner_is_malware(self):
        db, _ = self._db()
        for label in ("famA", "famB"):
            sig = next(s for s in db.signatures if s.class_label == label)
            verdict, pred = classify_binary(sig.graph, db, "x")
            assert verdict == "malware"
            assert pred.predicted_label == label

    def test_requires_benign_class(self):
        rng = np.random.default_rng(8)
        vocab = make_vocab(4)
        db = db_from_graphs([("famA/r1/0", "famA", random_graph(vocab, rng))], vocab)
        with pytest.raises(OpsigError):
            classify_binary(random_graph(vocab, rng), db)

    def test_tie_between_benign_and_malware_uses_id_order(self):
        rng = np.random.default_rng(9)
        vocab = make_vocab(4)
        shared = random_graph(vocab, rng)
        db = db_from_graphs(
            [("benign/r1/0", "benign", shared), ("famZ/r1/0", "famZ", shared)], vocab
        )
        verdict, pred = classify_binary(random_graph(vocab, rng), db, "x")
        assert pred.best_signature_id == "benign/r1/0"
        assert verdict == "benign"


class TestClassifyBatch:
    def _setup(self, n_samples=40):
        rng = np.random.default_rng(10)
        vocab = make_vocab(8)
        db = db_from_graphs(
            [(f"f{i}/r1/0", f"f{i}", random_graph(vocab, rng)) for i in range(6)], vocab
        )
        samples = [(f"s{i}", random_graph(vocab, rng)) for i in range(n_samples)]
        return db, vocab, samples

    def test_matches_single_classify(self):
        db, _, samples = self._setup(20)
        batch = classify_batch(samples, db)
        for (sid, graph), pred in zip(samples, batch):
            assert pred == classify(graph, db, sid)

    def test_empty_batch(self):
        db, _, _ = self._setup()
        assert classify_batch([], db) == []

    def test_bad_entry_isolated(self):
        db, vocab, samples = self._setup(5)
        rng = np.random.default_rng(11)
        bad = ("bad", random_graph(make_vocab(9), rng))
        results = classify_batch(samples[:2] + [bad] + samples[2:], db)
        assert isinstance(results[2], VocabularyMismatchError)
        assert str(results[2]) == "sample 'bad' was built on a different vocabulary"
        others = results[:2] + results[3:]
        assert all(not isinstance(r, OpsigError) for r in others)


class TestPredictionOutput:
    def test_row_format(self):
        rng = np.random.default_rng(12)
        vocab = make_vocab(4)
        target = random_graph(vocab, rng)
        db = db_from_graphs([("famA/r1/0", "famA", target)], vocab)
        pred = classify(target, db, "sample-1")
        assert pred.to_row() == "sample-1,famA,famA/r1/0,0.0"

    def test_row_quotes_csv_syntax(self):
        rng = np.random.default_rng(12)
        vocab = make_vocab(4)
        target = random_graph(vocab, rng)
        db = db_from_graphs([("fam,a/r1/0", "fam,a", target)], vocab)
        row = classify(target, db, 'x,"y"\r').to_row()
        assert list(csv.reader(io.StringIO(row, newline=""))) == [
            ['x,"y"\r', "fam,a", "fam,a/r1/0", "0.0"]
        ]

    def test_json_dict_ranking(self):
        rng = np.random.default_rng(13)
        vocab = make_vocab(4)
        db = db_from_graphs(
            [
                ("famA/r1/0", "famA", random_graph(vocab, rng)),
                ("famB/r1/0", "famB", random_graph(vocab, rng)),
            ],
            vocab,
        )
        pred = classify(random_graph(vocab, rng), db, "s")
        doc = pred.to_json_dict()
        assert doc["sample_id"] == "s"
        assert len(doc["ranking"]) == 2
