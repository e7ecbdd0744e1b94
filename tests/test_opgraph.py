import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    graph_for_sequence,
    merge_counts,
)
from opsig.signatures import build_database, load_database, save_database
from opsig.synthcorpus import generate_corpus

from helpers import make_vocab, naive_graph_distance, random_graph, reference_graph


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

    def test_distinct_opcodes_allocate_no_square_grid(self):
        # 3,000 distinct opcodes: a width x width int64 grid of pair counts would take 72 MB
        opcodes = tuple(f"OP{i:04d}" for i in range(3000)) + ("OP0000",)
        seq = OpcodeSequence("s", opcodes)
        tracemalloc.start()
        try:
            counts = count_bigrams(seq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(counts.counts) == 3000 and counts.total == 3000
        assert set(counts.counts.values()) == {1}
        assert peak < 8_000_000


@st.composite
def opcode_lists(draw):
    """Opcode lists over 1-6 names, one opcode long or longer.

    Each occurrence is the name itself, an equal string built anew (a distinct
    object) or an ``np.str_``, so counting must go by string value alone.
    """
    names = draw(
        st.lists(st.sampled_from(("ADD", "CALL", "JMP", "MOV", "POP", "PUSH", "RET")),
                 min_size=1, max_size=6, unique=True)
    )
    length = draw(st.one_of(st.just(1), st.integers(2, 40)))
    picks = draw(st.lists(st.sampled_from(names), min_size=length, max_size=length))
    forms = (str, lambda name: "".join(name), np.str_)
    return [draw(st.sampled_from(forms))(name) for name in picks]


@settings(max_examples=300, deadline=None)
@given(opcode_lists())
def test_count_bigrams_matches_counter_oracle(opcodes):
    reference = BigramCounts(dict(Counter(zip(opcodes, opcodes[1:]))), len(opcodes) - 1)
    counts = count_bigrams(OpcodeSequence("s", tuple(opcodes)))
    assert counts == reference
    assert all(type(value) is int for value in counts.counts.values())


class TestBigramCountsValidation:
    def test_float_count_rejected(self):
        # 1.5 would be truncated to 1 when the graph is built: [0.5, 0.5], not [0.6, 0.4]
        with pytest.raises(ValueError, match="int"):
            BigramCounts({("A", "B"): 1.5, ("A", "F"): 1}, 2.5)
        # ... and ranked after truncation by build_vocabulary
        with pytest.raises(ValueError, match="int"):
            BigramCounts({("A", "B"): 1.5, ("C", "D"): 1.6, ("E", "F"): 3.0}, 6.1)

    def test_bool_count_rejected(self):
        with pytest.raises(ValueError, match="int"):
            BigramCounts({("A", "B"): True}, 1)

    def test_float_total_rejected(self):
        with pytest.raises(ValueError, match="int"):
            BigramCounts({("A", "B"): 2}, 2.0)

    def test_count_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            BigramCounts({("A", "B"): 2, ("B", "A"): 0}, 2)


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
    vocab = coded.vocabulary(train, retain)
    reference = build_vocabulary(merged, retain)
    assert (vocab.opcodes, vocab.retained_bigrams) == loop_vocabulary(merged, retain)
    assert (reference.opcodes, reference.retained_bigrams) == loop_vocabulary(merged, retain)
    assert vocab == reference
    # held-out samples first, then the training ones backwards: rows follow ``positions``
    positions = [i for i in range(len(samples)) if i not in train] + train[::-1]
    assert_rows_match_reference(coded, samples, positions, vocab)


def assert_rows_match_reference(coded, samples, positions, vocab):
    """``count_rows`` gives the plain-loop counts and drop count of each sample, bit for bit."""
    rows, dropped = coded.count_rows(positions, vocab)
    assert rows.shape == (len(positions), len(vocab.flat_cells))
    for i, row, sample_dropped in zip(positions, rows, dropped):
        expected, _, expected_dropped = reference_graph(samples[i].opcodes, vocab)
        assert row.tobytes() == expected.tobytes()
        assert sample_dropped == expected_dropped


def test_coded_corpus_keeps_ids_and_labels_in_input_order():
    samples = [
        OpcodeSequence("s2", ("MOV", "ADD"), "famB"),
        OpcodeSequence("s0", ("ADD",)),
        OpcodeSequence("s1", ("NOP", "NOP"), "benign"),
        OpcodeSequence("s3", ("ADD", "MOV"), "famB"),
    ]
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
        coded = code_corpus([samples[i] for i in order])
        assert coded.sample_ids == tuple(samples[i].sample_id for i in order)
        assert coded.labels == tuple(samples[i].label for i in order)


def test_count_rows_match_reference_on_unseen_and_one_opcode_samples():
    opcodes = [("ADD", "MOV", "ADD", "MOV", "JMP"), ("ADD",), ("NOP", "NOP"), ("ADD", "NOP", "MOV")]
    samples = [OpcodeSequence(f"s{i}", ops) for i, ops in enumerate(opcodes)]
    coded = code_corpus(samples)
    vocab = coded.vocabulary([0], 1.0)
    assert "NOP" not in vocab.opcodes
    assert_rows_match_reference(coded, samples, [3, 2, 1, 0], vocab)


def assert_matches_dict_path(seq, vocab):
    """``graph_for_sequence`` and the dict-based path give the plain-loop graph, bit for bit."""
    _, expected, expected_dropped = reference_graph(seq.opcodes, vocab)
    for graph, dropped in (graph_for_sequence(seq, vocab), build_graph(count_bigrams(seq), vocab)):
        assert graph.vector.tobytes() == expected.tobytes()
        assert dropped == expected_dropped


class TestSlotOf:
    @settings(max_examples=100, deadline=None)
    @given(coded_corpora(), st.sampled_from((0.3, 0.6, 0.9, 1.0)))
    def test_retained_cells_and_no_others_have_slots(self, drawn, retain):
        samples = [OpcodeSequence(f"s{i}", tuple(ops)) for i, (ops, _) in enumerate(drawn)]
        assume(any(len(sample.opcodes) > 1 for sample in samples))
        vocab = code_corpus(samples).vocabulary(range(len(samples)), retain)
        index = {op: i for i, op in enumerate(vocab.opcodes)}
        cells = sorted((index[a], index[b]) for a, b in vocab.retained_bigrams)
        expected = {cell: slot for slot, cell in enumerate(cells)}
        # index V stands for an opcode outside the vocabulary
        firsts, seconds = np.divmod(np.arange((vocab.size + 1) ** 2), vocab.size + 1)
        slots = vocab.slot_of(firsts, seconds).tolist()
        assert slots == [expected.get(cell, -1) for cell in zip(firsts.tolist(), seconds.tolist())]


class TestGraphForSequence:
    @settings(max_examples=200, deadline=None)
    @given(
        coded_corpora(),
        # training never holds NOP or XOR, so a query can hold opcodes outside the vocabulary
        st.lists(st.sampled_from(("ADD", "JMP", "MOV", "POP", "NOP", "XOR")), min_size=1, max_size=20),
        st.one_of(st.sampled_from((0.1, 0.5, 1.0)), st.floats(0.01, 1.0)),
    )
    def test_matches_dict_path(self, drawn, query, retain):
        merged = merge_counts(count_bigrams(OpcodeSequence("t", tuple(ops))) for ops, _ in drawn)
        assume(merged.total > 0)
        assert_matches_dict_path(OpcodeSequence("q", tuple(query)), build_vocabulary(merged, retain))

    @pytest.mark.parametrize("opcode", ["OP000", "NOP"])
    def test_one_opcode_gives_all_zero_graph(self, opcode):
        vocab = make_vocab(2)
        seq = OpcodeSequence("s", (opcode,))
        graph, dropped = graph_for_sequence(seq, vocab)
        assert not graph.vector.any() and dropped == 0
        assert_matches_dict_path(seq, vocab)

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptySampleError):
            graph_for_sequence(OpcodeSequence("s", ()), make_vocab(1))

    def test_default_corpus_matches_dict_path(self):
        samples, _ = generate_corpus()
        vocab = build_database(samples).vocabulary
        for seq in samples:
            assert_matches_dict_path(seq, vocab)


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


class TestGraphEquality:
    """Graphs compare by value: the same vocabulary and equal vectors."""

    def test_equal_vector_on_equal_vocabulary(self):
        weights = random_graph(make_vocab(5), np.random.default_rng(3)).weights
        a, b = OpcodeGraph(make_vocab(5), weights), OpcodeGraph(make_vocab(5), weights)
        assert a.vocab is not b.vocab
        assert a == b
        assert not a != b

    def test_loaded_graph_equals_trained_graph(self, tmp_path):
        db = build_database(generate_corpus()[0][:60])
        save_database(db, tmp_path / "db.sigdb.json")
        loaded = load_database(tmp_path / "db.sigdb.json")
        assert loaded.vocabulary is not db.vocabulary
        assert [s.graph for s in loaded.signatures] == [s.graph for s in db.signatures]

    def test_other_vector_or_vocabulary_differs(self):
        rng = np.random.default_rng(4)
        vocab = make_vocab(5)
        a, b = random_graph(vocab, rng), random_graph(vocab, rng)
        assert a != b
        assert a != OpcodeGraph(make_vocab(5, retain=0.5), a.weights)
        assert a != OpcodeGraph.from_vector(make_vocab(6), np.zeros(36))
        assert a != (a.vocab, a.vector)

    def test_graph_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(random_graph(make_vocab(3), np.random.default_rng(5)))
