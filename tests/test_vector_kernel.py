"""Property tests for the graph vector over the retained bigrams and its L1 kernel.

Vocabularies are random, with a retained set that is a strict subset of the
V x V cells, so every property also exercises cells a graph may not use.
Random count maps may retain no bigram, so graphs are often all zero.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.classifier import RANKING_LENGTH, classify, classify_batch
from opsig.clusterer import class_matrix, compute_distance_matrix
from opsig.errors import EmptyGraphError
from opsig.evaluation import family_similarity_table
from opsig.opgraph import (
    BigramCounts,
    OpcodeGraph,
    OpcodeVocabulary,
    build_graph,
    _sequential_sum,
    code_corpus,
    graph_distance,
    graph_layout,
    normalized_graphs,
    scaled_l1,
)
from opsig.signatures import (
    Signature,
    SignatureDatabase,
    build_database,
    class_rows,
    load_database,
    save_database,
)
from opsig.synthcorpus import CorpusConfig, generate_corpus

from helpers import (
    make_vocab,
    naive_graph_distance,
    random_graph,
    reference_distance,
    trained_metadata,
)

OPCODES = tuple(f"OP{i}" for i in range(6))
FOREIGN = ("XX", "YY")  # opcodes outside every vocabulary

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def vocabularies(draw):
    opcodes = OPCODES[: draw(st.integers(2, len(OPCODES)))]
    cells = [(a, b) for a in opcodes for b in opcodes]
    retained = draw(st.sets(st.sampled_from(cells), min_size=1, max_size=len(cells) - 1))
    return OpcodeVocabulary(opcodes, frozenset(retained), 0.9)


def count_maps(vocab):
    names = st.sampled_from(vocab.opcodes + FOREIGN)
    return st.dictionaries(st.tuples(names, names), st.integers(1, 50), max_size=40).map(
        lambda counts: BigramCounts(counts, sum(counts.values()))
    )


@st.composite
def graphs(draw, n):
    """A vocabulary and ``n`` graphs built on it from random counts."""
    vocab = draw(vocabularies())
    return vocab, [build_graph(draw(count_maps(vocab)), vocab)[0] for _ in range(n)]


@st.composite
def weighted_graphs(draw, n):
    """A vocabulary and ``n`` graphs on it, each with weight on some retained bigram."""
    vocab = draw(vocabularies())
    retained = sorted(vocab.retained_bigrams)
    built = []
    for _ in range(n):
        counts = dict(draw(count_maps(vocab)).counts)
        bigram = draw(st.sampled_from(retained))
        counts[bigram] = counts.get(bigram, 0) + 1
        built.append(build_graph(BigramCounts(counts, sum(counts.values())), vocab)[0])
    return vocab, built


def naive_dense_graph(counts, vocab):
    """Plain-loop dense build: retained counts, each row divided by its total."""
    size = vocab.size
    index = {op: i for i, op in enumerate(vocab.opcodes)}
    dense = np.zeros((size, size))
    dropped = 0
    for (first, second), count in counts.counts.items():
        if (first, second) in vocab.retained_bigrams:
            dense[index[first], index[second]] = count
        else:
            dropped += count
    for i in range(size):
        total = sum(dense[i])
        if total:
            dense[i] = dense[i] / total
    return dense, dropped


@PROPERTY
@given(st.data())
def test_build_graph_matches_naive_dense_build(data):
    vocab = data.draw(vocabularies())
    counts = data.draw(count_maps(vocab))
    graph, dropped = build_graph(counts, vocab)
    expected, expected_dropped = naive_dense_graph(counts, vocab)
    np.testing.assert_array_equal(graph.weights, expected)
    assert dropped == expected_dropped
    assert graph.vector.shape == (len(vocab.retained_bigrams),)


@PROPERTY
@given(graphs(1))
def test_dense_constructor_recovers_the_vector_exactly(case):
    vocab, (graph,) = case
    again = OpcodeGraph(vocab, graph.weights)
    np.testing.assert_array_equal(again.vector, graph.vector)
    assert not again.vector.flags.writeable
    assert not graph.weights.flags.writeable


@PROPERTY
@given(st.data())
def test_dense_constructor_rejects_off_support_weight(data):
    vocab, (graph,) = data.draw(graphs(1))
    free = [
        (vocab.index[a], vocab.index[b])
        for a in vocab.opcodes
        for b in vocab.opcodes
        if (a, b) not in vocab.retained_bigrams
    ]
    cell = data.draw(st.sampled_from(free))
    dense = graph.weights.copy()
    dense[cell] = data.draw(st.floats(1e-6, 1.0))
    with pytest.raises(ValueError):
        OpcodeGraph(vocab, dense)


@PROPERTY
@given(graphs(3))
def test_distance_matches_naive_oracle_and_is_a_metric(case):
    _, (a, b, c) = case
    dab = graph_distance(a, b).distance
    assert abs(dab - naive_graph_distance(a, b)) <= 1e-12
    assert graph_distance(a, a).distance == 0.0
    assert dab == graph_distance(b, a).distance
    assert 0.0 <= dab <= 1.0
    assert (dab == 0.0) == np.array_equal(a.vector, b.vector)
    dac = graph_distance(a, c).distance
    assert dac <= dab + graph_distance(b, c).distance + 1e-12


@PROPERTY
@given(st.data())
def test_classify_batch_equals_single_classify(data):
    vocab, sig_graphs = data.draw(graphs(data.draw(st.integers(1, 5))))
    sample_graphs = [
        build_graph(data.draw(count_maps(vocab)), vocab)[0]
        for _ in range(data.draw(st.integers(1, 6)))
    ]
    signatures = tuple(
        Signature(f"f{i % 2}/r1/{i}", f"f{i % 2}", g, 1, "r1") for i, g in enumerate(sig_graphs)
    )
    db = SignatureDatabase(vocab, signatures, {})
    # the same signature graphs re-used as samples give exact ties to break
    items = [(f"s{i}", g) for i, g in enumerate(sample_graphs + sig_graphs)]
    batch = classify_batch(items, db)
    for (sample_id, graph), result in zip(items, batch):
        if graph.vector.any():
            assert result == classify(graph, db, sample_id)
        else:  # no retained bigram: the slot holds the error that classify raises
            assert isinstance(result, EmptyGraphError)
            with pytest.raises(EmptyGraphError):
                classify(graph, db, sample_id)


@st.composite
def dense_graphs(draw, n):
    """A full vocabulary of up to 12 opcodes and ``n`` random graphs, some rows all zero.

    Their many inexact weights make the order in which a sum adds them show in its bits.
    """
    vocab = make_vocab(draw(st.integers(2, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return vocab, [random_graph(vocab, rng, zero_row_prob=0.3) for _ in range(n)]


@st.composite
def stack_and_queries(draw):
    """A vocabulary, a stack of graphs and query graphs, each side with an all-zero graph."""
    n = draw(st.integers(2, 9))
    vocab, built = draw(st.one_of(graphs(n), dense_graphs(n)))
    zero = OpcodeGraph.from_vector(vocab, np.zeros(len(vocab.flat_cells)))
    split = draw(st.integers(1, len(built) - 1))
    return vocab, [*built[:split], zero], [zero, *built[split:]]


def kernel(stack, query):
    return scaled_l1(graph_layout([g.vector for g in stack]), [query.vector], query.vocab.size)[0]


@PROPERTY
@given(stack_and_queries())
def test_kernel_matches_naive_oracle_over_a_stack(case):
    _, stack, queries = case
    for query in queries:
        for graph, distance in zip(stack, kernel(stack, query).tolist()):
            assert abs(distance - naive_graph_distance(graph, query)) <= 1e-12
            assert 0.0 <= distance <= 1.0


@PROPERTY
@given(stack_and_queries())
def test_kernel_is_exactly_zero_on_equal_vectors(case):
    _, stack, queries = case
    for graph in stack + queries:
        copy = OpcodeGraph.from_vector(graph.vocab, graph.vector)
        assert kernel([graph], copy)[0] == 0.0
        for other, distance in zip(stack, kernel(stack, graph).tolist()):
            if np.array_equal(other.vector, graph.vector):
                assert distance == 0.0


@PROPERTY
@given(stack_and_queries())
def test_kernel_is_bit_symmetric_and_the_same_alone_as_in_a_stack(case):
    _, stack, queries = case
    for query in queries:
        for graph, distance in zip(stack, kernel(stack, query).tolist()):
            assert distance == kernel([graph], query)[0]
            assert distance == kernel([query], graph)[0]
            assert distance == graph_distance(graph, query).distance
            assert distance == graph_distance(query, graph).distance


@PROPERTY
@given(stack_and_queries())
def test_batch_ranking_distances_equal_pairwise_distances(case):
    vocab, stack, queries = case
    signatures = tuple(
        Signature(f"f/r1/{i}", "f", g, 1, "r1") for i, g in enumerate(stack)
    )
    db = SignatureDatabase(vocab, signatures, {})
    items = [(f"s{i}", g) for i, g in enumerate(queries) if g.vector.any()]
    by_id = {sig.signature_id: sig.graph for sig in db.signatures}
    for (_, query), prediction in zip(items, classify_batch(items, db)):
        for signature_id, distance in prediction.ranking:
            assert distance == graph_distance(by_id[signature_id], query).distance


@PROPERTY
@given(st.data())
def test_ranking_is_the_nearest_prefix_of_every_signature(data):
    # more signatures than a ranking holds, drawn from four graphs, so the cut often splits a tie
    count = data.draw(st.integers(RANKING_LENGTH + 1, 3 * RANKING_LENGTH))
    vocab, pool = data.draw(st.one_of(weighted_graphs(4), dense_graphs(4)))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
    # ids sort as strings, so "f/r1/10" ranks before "f/r1/2" on a tie
    signatures = tuple(Signature(f"f/r1/{i}", "f", g, 1, "r1") for i, g in enumerate(picks))
    db = SignatureDatabase(vocab, signatures, {})
    items = [(f"s{i}", g) for i, g in enumerate(pool) if g.vector.any()]
    for (sample_id, query), prediction in zip(items, classify_batch(items, db)):
        every = sorted(
            (graph_distance(sig.graph, query).distance, sig.signature_id) for sig in signatures
        )
        assert prediction.ranking == tuple((sid, d) for d, sid in every[:RANKING_LENGTH])
        assert prediction.ranking[0] == (prediction.best_signature_id, prediction.best_distance)
        assert prediction == classify(query, db, sample_id)


@PROPERTY
@given(stack_and_queries())
def test_distance_matrix_cells_equal_graph_distance(case):
    _, stack, queries = case
    built = stack + queries
    values = compute_distance_matrix([(str(i), g) for i, g in enumerate(built)]).values
    for i, a in enumerate(built):
        for j, b in enumerate(built):
            assert values[i, j] == graph_distance(a, b).distance


@st.composite
def term_blocks(draw):
    """1-D terms, or a block of 0-300 rows and 1-12 columns, in C, Fortran or strided order.

    Magnitudes span many orders and some terms are zero, so the order of the additions shows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(0, 300))
    shape = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(1, 12)))
    terms = rng.random(shape) * np.exp(rng.normal(0.0, 8.0, shape))
    terms[rng.random(shape) < 0.2] = 0.0
    if len(shape) == 1:
        return terms
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        return np.asfortranarray(terms)
    if layout == "strided":  # every other column of a wider C-ordered block
        wide = np.zeros((rows, 2 * shape[1]))
        wide[:, ::2] = terms
        return wide[:, ::2]
    return terms


@PROPERTY
@given(term_blocks())
def test_sequential_sum_adds_each_column_left_to_right(terms):
    expected = []
    for column in terms.T.tolist() if terms.ndim == 2 else [terms.tolist()]:
        total = 0.0
        for term in column:
            total += term
        expected.append(total)
    result = np.asarray(_sequential_sum(terms))
    assert result.shape == terms.shape[1:]
    assert result.tobytes() == np.array(expected).reshape(result.shape).tobytes()


@PROPERTY
@given(st.data())
def test_every_kernel_caller_equals_the_python_float_reference(data):
    vocab, built = data.draw(dense_graphs(data.draw(st.integers(1, 9))))
    values = compute_distance_matrix([(str(i), g) for i, g in enumerate(built)]).values
    for i, a in enumerate(built):
        for j, b in enumerate(built):
            assert graph_distance(a, b).distance == reference_distance(a, b)
            assert values[i, j] == reference_distance(a, b)
    signatures = tuple(Signature(f"f/r1/{i}", "f", g, 1, "r1") for i, g in enumerate(built))
    db = SignatureDatabase(vocab, signatures, {})
    by_id = {sig.signature_id: sig.graph for sig in db.signatures}
    items = [(f"s{i}", g) for i, g in enumerate(built) if g.vector.any()]
    for (_, query), prediction in zip(items, classify_batch(items, db)):
        for signature_id, distance in prediction.ranking:
            assert distance == reference_distance(by_id[signature_id], query)


@st.composite
def class_count_rows(draw):
    """A vocabulary and 1-8 rows of retained counts over it, as one class's samples give them.

    Rows may be all zero and supports may be disjoint, and some slots often hold
    no row's count, so the table of held slots differs from the vocabulary's.
    """
    vocab = draw(st.one_of(vocabularies(), st.integers(2, 12).map(make_vocab)))
    size, n = len(vocab.flat_cells), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(1, 50, (n, size)).astype(float)
    if draw(st.booleans()):  # disjoint supports: each slot may be held by one row only
        rows[rng.integers(0, n, size) != np.arange(n)[:, None]] = 0.0
    rows[:, rng.random(size) < draw(st.floats(0.0, 1.0))] = 0.0  # slots no row holds
    rows[rng.random((n, size)) < draw(st.floats(0.0, 1.0))] = 0.0
    rows[rng.random(n) < 0.25] = 0.0  # all-zero rows
    return vocab, rows


@PROPERTY
@given(class_count_rows())
def test_class_matrix_equals_the_python_float_reference(case):
    vocab, rows = case
    values = class_matrix(rows, vocab).values
    built = normalized_graphs(rows, vocab)
    graphs = [(str(i), g) for i, g in enumerate(built)]
    assert values.tobytes() == compute_distance_matrix(graphs).values.tobytes()
    for i, a in enumerate(built):
        for j, b in enumerate(built):
            assert values[i, j] == reference_distance(a, b)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


# a small seed-7 corpus: 168 samples, V = 40, 496 retained bigrams, of which a
# class's samples hold 98-261
PINNED_CORPUS = CorpusConfig(
    samples_per_subfamily=6, samples_per_benign_source=3, length_range=(200, 600), seed=7
)


def test_class_matrix_bits_pinned():
    samples, _ = generate_corpus(PINNED_CORPUS)
    vocab, classes = class_rows(code_corpus(samples), range(len(samples)), 0.9)
    digests = {label: _digest(class_matrix(rows, vocab).values) for label, rows in classes}
    assert digests == {
        "benign": "a8148e5dc20ff6604fc5e530c4e97ad16e096085f0adc319688a5fbf30800b99",
        "fam00": "976bd9cbe83d61fed9e23fd31a931f5d97f31bb3a9fb638ce599dea0f9272b93",
        "fam01": "01dc4d77ba15862377f62e7556741b63337ea1a84934ddd8fd4c0e3d6706ca89",
        "fam02": "92b8946b078adff4b0277c84080b73f12b11d472182b767d4b2b70d0d4133bb2",
        "fam03": "f9d93b71a5e05f711ac8ba8c0e248822d77f9a17cebfa1b2a2523b517cb68b27",
        "fam04": "789c07d154b250d09270a401bff2c888c135c9b0b3e7f2e3e5051f36deb3c894",
        "fam05": "880aad4661a89641fdc3d8bfa1db22345cecc9d4ba46189b74a7670ca81b3322",
    }


def test_similarity_table_bits_pinned():
    samples, _ = generate_corpus(PINNED_CORPUS)
    table = family_similarity_table(build_database(samples, monolithic=True))
    assert _digest(table.values) == (
        "c8dff2bcb5507acb857c95c5f68193f98f6bb56ebbb5ab1ed3dff4bbe95e32d5"
    )


@PROPERTY
@given(weighted_graphs(3))
def test_database_round_trip_preserves_vectors(case):
    vocab, sig_graphs = case
    signatures = tuple(
        Signature(f"c/r1/{i}", "c", g, 1, "r1") for i, g in enumerate(sig_graphs)
    )
    db = SignatureDatabase(vocab, signatures, trained_metadata(vocab))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.sigdb.json"
        save_database(db, path)
        loaded = load_database(path)
    assert loaded == db
    for original, copy in zip(db.signatures, loaded.signatures):
        np.testing.assert_array_equal(copy.graph.weights, original.graph.weights)
