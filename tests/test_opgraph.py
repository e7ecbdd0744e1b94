import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.errors import EmptyCorpusError, EmptySampleError, VocabularyMismatchError
from opsig.ingest import OpcodeSequence
from opsig.opgraph import (
    BigramCounts,
    OpcodeGraph,
    build_graph,
    build_vocabulary,
    code_corpus,
    count_bigrams,
    graph_distance,
    merge_counts,
    retained_counts,
)

from helpers import make_vocab, naive_graph_distance, random_graph


class TestCountBigrams:
    def test_table1_sequence1(self, seq1):
        counts = count_bigrams(seq1)
        assert counts.total == 11
        # hand enumeration of adjacent pairs in the 12-opcode sequence
        assert counts.counts == {
            ("PUSH", "POP"): 1,
            ("POP", "MOV"): 2,
            ("MOV", "POP"): 1,
            ("POP", "RET"): 1,
            ("RET", "MOV"): 1,
            ("MOV", "CALL"): 1,
            ("CALL", "PUSH"): 1,
            ("PUSH", "PUSH"): 1,
            ("PUSH", "CALL"): 1,
            ("CALL", "POP"): 1,
        }

    def test_single_opcode_has_no_pairs(self):
        counts = count_bigrams(OpcodeSequence("s", ("MOV",)))
        assert counts.total == 0
        assert counts.counts == {}

    def test_self_loop_counting(self):
        counts = count_bigrams(OpcodeSequence("s", ("A", "A", "A")))
        assert counts.counts == {("A", "A"): 2}
        assert counts.total == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySampleError):
            count_bigrams(OpcodeSequence("s", ()))

    def test_total_is_length_minus_one(self):
        rng = np.random.default_rng(3)
        names = [f"OP{i}" for i in range(6)]
        for _ in range(25):
            length = int(rng.integers(1, 60))
            seq = OpcodeSequence("s", tuple(rng.choice(names) for _ in range(length)))
            assert count_bigrams(seq).total == length - 1


class TestMergeCounts:
    def test_key_wise_sum(self):
        a = BigramCounts({("A", "B"): 2, ("B", "A"): 1}, 3)
        b = BigramCounts({("A", "B"): 1, ("C", "D"): 4}, 5)
        merged = merge_counts([a, b])
        assert merged.counts == {("A", "B"): 3, ("B", "A"): 1, ("C", "D"): 4}
        assert merged.total == 8

    def test_empty(self):
        assert merge_counts([]).total == 0


class TestBuildVocabulary:
    def test_retain_all(self):
        counts = BigramCounts({("A", "B"): 3, ("C", "A"): 1}, 4)
        vocab = build_vocabulary(counts, 1.0)
        assert vocab.retained_bigrams == {("A", "B"), ("C", "A")}
        assert vocab.opcodes == ("A", "B", "C")

    def test_greedy_prefix_drops_tail(self):
        counts = BigramCounts({("A", "B"): 9, ("C", "D"): 1}, 10)
        vocab = build_vocabulary(counts, 0.9)
        assert vocab.retained_bigrams == {("A", "B")}
        assert vocab.opcodes == ("A", "B")

    def test_prefix_extends_when_threshold_not_met(self):
        counts = BigramCounts({("A", "B"): 9, ("C", "D"): 1}, 10)
        vocab = build_vocabulary(counts, 0.95)
        assert vocab.retained_bigrams == {("A", "B"), ("C", "D")}
        assert vocab.opcodes == ("A", "B", "C", "D")

    def test_ties_break_lexicographically(self):
        counts = BigramCounts({("B", "A"): 1, ("A", "B"): 1}, 2)
        vocab = build_vocabulary(counts, 0.5)
        assert vocab.retained_bigrams == {("A", "B")}

    def test_filtering_monotonicity(self):
        rng = np.random.default_rng(5)
        names = [f"OP{i}" for i in range(8)]
        for _ in range(40):
            pairs = {}
            for _ in range(int(rng.integers(2, 20))):
                key = (str(rng.choice(names)), str(rng.choice(names)))
                pairs[key] = int(rng.integers(1, 50))
            counts = BigramCounts(pairs, sum(pairs.values()))
            fractions = sorted(rng.uniform(0.05, 1.0, size=3))
            retained = [build_vocabulary(counts, f).retained_bigrams for f in fractions]
            assert retained[0] <= retained[1] <= retained[2]

    def test_vocabulary_closure(self):
        rng = np.random.default_rng(6)
        names = [f"OP{i}" for i in range(8)]
        for _ in range(30):
            pairs = {}
            for _ in range(int(rng.integers(2, 25))):
                key = (str(rng.choice(names)), str(rng.choice(names)))
                pairs[key] = int(rng.integers(1, 30))
            counts = BigramCounts(pairs, sum(pairs.values()))
            vocab = build_vocabulary(counts, float(rng.uniform(0.2, 1.0)))
            used = {op for pair in vocab.retained_bigrams for op in pair}
            assert set(vocab.opcodes) == used
            assert list(vocab.opcodes) == sorted(vocab.opcodes)

    def test_invalid_fraction_rejected(self):
        counts = BigramCounts({("A", "B"): 1}, 1)
        for bad in (0.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                build_vocabulary(counts, bad)

    def test_empty_counts_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary(BigramCounts({}, 0), 0.9)


def loop_vocabulary(corpus_counts, retain_fraction):
    """The reference rank-and-cut: sort by (-count, bigram), keep a prefix by a running sum."""
    ranked = sorted(corpus_counts.counts.items(), key=lambda item: (-item[1], item[0]))
    target = retain_fraction * corpus_counts.total
    threshold = math.ceil(target - 1e-9 * max(1.0, target))
    retained, cumulative = [], 0
    for bigram, count in ranked:
        retained.append(bigram)
        cumulative += count
        if cumulative >= threshold:
            break
    return tuple(sorted({op for pair in retained for op in pair})), frozenset(retained)


def coded_corpora():
    """Up to eight short samples over four opcodes, each drawn into the training set or not.

    Four opcodes make count ties, repeated opcodes and single-opcode samples common.
    """
    opcodes = st.lists(st.sampled_from(("ADD", "JMP", "MOV", "POP")), min_size=1, max_size=12)
    return st.lists(st.tuples(opcodes, st.booleans()), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    coded_corpora(),
    st.one_of(st.sampled_from((0.1, 0.5, 0.9, 0.95, 1.0)), st.floats(0.01, 1.0)),
)
def test_coded_counts_match_counter_reference(drawn, retain):
    samples = [OpcodeSequence(f"s{i}", tuple(ops)) for i, (ops, _) in enumerate(drawn)]
    train = [i for i, (_, in_train) in enumerate(drawn) if in_train] or [0]
    merged = merge_counts(count_bigrams(samples[i]) for i in train)
    coded = code_corpus(samples)
    if merged.total == 0:
        with pytest.raises(EmptyCorpusError):
            build_vocabulary(merged, retain)
        with pytest.raises(EmptyCorpusError):
            coded.vocabulary(train, retain)
        return
    vocab, slots = coded.vocabulary(train, retain)
    reference = build_vocabulary(merged, retain)
    assert (vocab.opcodes, vocab.retained_bigrams) == loop_vocabulary(merged, retain)
    assert (reference.opcodes, reference.retained_bigrams) == loop_vocabulary(merged, retain)
    assert vocab == reference
    # held-out samples first, then the training ones backwards: rows follow ``positions``
    positions = [i for i in range(len(samples)) if i not in train] + train[::-1]
    rows, dropped = coded.count_rows(positions, slots)
    assert rows.shape == (len(samples), len(vocab.flat_cells))
    for i, row, sample_dropped in zip(positions, rows, dropped):
        expected, expected_dropped = retained_counts(count_bigrams(samples[i]), vocab)
        assert row.tobytes() == expected.tobytes()
        assert sample_dropped == expected_dropped


class TestBuildGraph:
    def test_push_row_has_equal_thirds(self, seq1, table1_vocab):
        graph, dropped = build_graph(count_bigrams(seq1), table1_vocab)
        assert dropped == 0
        idx = table1_vocab.index
        row = graph.weights[idx["PUSH"]]
        assert row[idx["POP"]] == 1 / 3
        assert row[idx["PUSH"]] == 1 / 3
        assert row[idx["CALL"]] == 1 / 3

    def test_pop_row(self, seq1, table1_vocab):
        graph, _ = build_graph(count_bigrams(seq1), table1_vocab)
        idx = table1_vocab.index
        row = graph.weights[idx["POP"]]
        assert row[idx["MOV"]] == 2 / 3
        assert row[idx["RET"]] == 1 / 3

    def test_full_matrices_for_both_sequences(self, seq1, seq2, table1_vocab):
        # vocabulary order is CALL, JMP, MOV, POP, PUSH, RET
        assert table1_vocab.opcodes == ("CALL", "JMP", "MOV", "POP", "PUSH", "RET")
        g1, _ = build_graph(count_bigrams(seq1), table1_vocab)
        g2, _ = build_graph(count_bigrams(seq2), table1_vocab)
        expected1 = np.array([
            [0, 0, 0, 1 / 2, 1 / 2, 0],
            [0, 0, 0, 0, 0, 0],
            [1 / 2, 0, 0, 1 / 2, 0, 0],
            [0, 0, 2 / 3, 0, 0, 1 / 3],
            [1 / 3, 0, 0, 1 / 3, 1 / 3, 0],
            [0, 0, 1, 0, 0, 0],
        ])
        expected2 = np.array([
            [0, 1, 0, 0, 0, 0],
            [0, 0, 1 / 2, 0, 1 / 2, 0],
            [1 / 3, 1 / 3, 0, 0, 1 / 3, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 1 / 3, 1 / 3, 1 / 3, 0],
            [0, 0, 0, 0, 0, 0],
        ])
        np.testing.assert_array_equal(g1.weights, expected1)
        np.testing.assert_array_equal(g2.weights, expected2)

    def test_out_of_vocabulary_bigrams_dropped(self):
        vocab = build_vocabulary(BigramCounts({("X", "Y"): 5}, 5), 1.0)
        counts = BigramCounts({("A", "B"): 3, ("B", "A"): 2}, 5)
        graph, dropped = build_graph(counts, vocab)
        assert dropped == 5
        assert not graph.weights.any()

    def test_unretained_bigrams_renormalize_rows(self):
        # (A,C) filtered off: the A row normalizes over retained (A,B) only
        corpus = BigramCounts({("A", "B"): 8, ("B", "A"): 3, ("A", "C"): 1}, 12)
        vocab = build_vocabulary(corpus, 0.9)
        assert vocab.retained_bigrams == {("A", "B"), ("B", "A")}
        assert vocab.opcodes == ("A", "B")
        graph, dropped = build_graph(corpus, vocab)
        assert dropped == 1
        idx = vocab.index
        assert graph.weights[idx["A"], idx["B"]] == 1.0

    def test_rows_stochastic_or_zero(self):
        rng = np.random.default_rng(9)
        names = [f"OP{i}" for i in range(10)]
        for _ in range(30):
            length = int(rng.integers(2, 200))
            seq = OpcodeSequence("s", tuple(rng.choice(names) for _ in range(length)))
            counts = count_bigrams(seq)
            vocab = build_vocabulary(counts, float(rng.uniform(0.3, 1.0)))
            graph, _ = build_graph(counts, vocab)
            sums = graph.weights.sum(axis=1)
            assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))
            assert graph.weights.min() >= 0.0
            assert graph.weights.max() <= 1.0


class TestGraphDistance:
    def test_identical_graphs_have_zero_distance(self):
        rng = np.random.default_rng(1)
        graph = random_graph(make_vocab(8), rng)
        score = graph_distance(graph, graph)
        assert score.distance == 0.0
        assert score.similarity == 1.0

    def test_worked_two_node_example(self):
        vocab = make_vocab(2)
        a = OpcodeGraph(vocab, np.array([[0.0, 1.0], [0.0, 0.0]]))
        b = OpcodeGraph(vocab, np.array([[1.0, 0.0], [0.0, 0.0]]))
        score = graph_distance(a, b)
        assert score.distance == 0.5
        assert score.similarity == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        vocab = make_vocab(12)
        for _ in range(20):
            a, b = random_graph(vocab, rng), random_graph(vocab, rng)
            assert graph_distance(a, b).distance == graph_distance(b, a).distance

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            vocab = make_vocab(int(rng.integers(2, 20)))
            a = random_graph(vocab, rng, zero_row_prob=0.2)
            b = random_graph(vocab, rng, zero_row_prob=0.2)
            fast = graph_distance(a, b).distance
            assert fast == pytest.approx(naive_graph_distance(a, b), abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        vocab = make_vocab(10)
        for _ in range(50):
            a, b, c = (random_graph(vocab, rng) for _ in range(3))
            dab = graph_distance(a, b).distance
            dbc = graph_distance(b, c).distance
            dac = graph_distance(a, c).distance
            assert dac <= dab + dbc + 1e-12

    def test_distance_similarity_complement(self):
        rng = np.random.default_rng(12)
        vocab = make_vocab(6)
        for _ in range(20):
            score = graph_distance(random_graph(vocab, rng), random_graph(vocab, rng))
            assert score.distance + score.similarity == pytest.approx(1.0, abs=1e-12)
            assert 0.0 <= score.distance <= 1.0

    def test_vocabulary_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        a = random_graph(make_vocab(4), rng)
        b = random_graph(make_vocab(5), rng)
        with pytest.raises(VocabularyMismatchError):
            graph_distance(a, b)
