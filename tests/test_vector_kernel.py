"""Property tests for the graph vector over the retained bigrams and its L1 kernel.

Vocabularies are random, with a retained set that is a strict subset of the
V x V cells, so every property also exercises cells a graph may not use.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.classifier import classify, classify_batch
from opsig.errors import EmptyGraphError
from opsig.opgraph import BigramCounts, OpcodeGraph, OpcodeVocabulary, build_graph, graph_distance
from opsig.signatures import Signature, SignatureDatabase, load_database, save_database

from helpers import naive_graph_distance

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


@PROPERTY
@given(graphs(3))
def test_database_round_trip_preserves_vectors(case):
    vocab, sig_graphs = case
    signatures = tuple(
        Signature(f"c/r1/{i}", "c", g, 1, "r1") for i, g in enumerate(sig_graphs)
    )
    db = SignatureDatabase(vocab, signatures, {})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.sigdb.json"
        save_database(db, path)
        loaded = load_database(path)
    assert loaded == db
    for original, copy in zip(db.signatures, loaded.signatures):
        np.testing.assert_array_equal(copy.graph.weights, original.graph.weights)
