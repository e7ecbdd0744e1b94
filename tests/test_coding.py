"""Every sample carries its opcodes' integer coding from where it was made.

``OpcodeSequence.coding`` is ``(names, codes)`` with ``names[codes[k]] ==
opcodes[k]``. ``load_corpus`` and the generator store it as they make each
sample; a sample built by hand codes itself on first use. Whichever made a
sample, every count and graph taken from it must equal the one taken from a
lazily coded copy, ``OpcodeSequence(s.sample_id, tuple(s.opcodes), s.label)``.
"""

import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.errors import EmptyCorpusError
from opsig.ingest import OpcodeSequence, load_corpus
from opsig.opgraph import build_graph, code_corpus, count_bigrams, graph_for_sequence
from opsig.signatures import build_database, save_database
from opsig.synthcorpus import (
    DEFAULT_CONFIG,
    CorpusConfig,
    FamilyModel,
    generate_corpus,
    sample_sequence,
    write_corpus,
)

_NAMES = ("MOV", "PUSH", "POP", "J.NE", "OP_1")


def _text(opcodes, canonical, rng):
    """``opcodes`` as canonical corpus text, or lower case with a comment, blanks and indents."""
    if canonical:
        return "\n".join(opcodes) + "\n"
    lines = ["# header"]
    for op in opcodes:
        if rng.random() < 0.2:
            lines.append("")
        lines.append(f"  {op.lower()}" if rng.random() < 0.2 else op.lower())
    return "\n".join(lines) + "\n"


@st.composite
def loaded_corpora(draw):
    """``load_corpus`` of a tree mixing canonical and non-canonical files."""
    files = draw(st.lists(
        st.tuples(
            st.sampled_from(["benign", "famA", "famB"]),
            st.lists(st.sampled_from(_NAMES), min_size=1, max_size=15),
            st.booleans(),
        ),
        min_size=1, max_size=6,
    ))
    rng = draw(st.randoms(use_true_random=False))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for i, (label, opcodes, canonical) in enumerate(files):
            (root / label).mkdir(exist_ok=True)
            (root / label / f"s{i}.ops").write_text(_text(opcodes, canonical, rng), encoding="utf-8")
        return load_corpus(root)


@st.composite
def generated_corpora(draw):
    """``generate_corpus`` of a small config; 300 opcodes take 16-bit codes."""
    config = CorpusConfig(
        families=draw(st.integers(1, 2)),
        subfamilies_per_family=draw(st.integers(1, 2)),
        samples_per_subfamily=draw(st.integers(1, 3)),
        benign_sources=draw(st.integers(1, 2)),
        samples_per_benign_source=draw(st.integers(1, 2)),
        alphabet_size=draw(st.sampled_from([2, 5, 40, 300])),
        length_range=(2, draw(st.integers(2, 60))),
        seed=draw(st.integers(0, 1000)),
    )
    return generate_corpus(config)[0]


@st.composite
def repeated_name_walks(draw):
    """``sample_sequence`` on a hand-made model whose alphabet repeats a name."""
    size = draw(st.sampled_from([2, 3, 5, 260]))
    alphabet = list(draw(st.lists(st.sampled_from(_NAMES), min_size=size, max_size=size)))
    alphabet[-1] = alphabet[0]  # at least one repeat, also past code 255 in the long alphabet
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    model = FamilyModel("fam", "fam-s0", tuple(alphabet), rng.dirichlet(np.ones(size)),
                        rng.dirichlet(np.ones(size), size=size))
    return [
        sample_sequence(model, draw(st.integers(2, 40)), [draw(st.integers(0, 99)), k], f"w{k}")
        for k in range(draw(st.integers(1, 4)))
    ]


@st.composite
def hand_built(draw):
    """Hand-built samples whose opcodes are names, equal strings built anew, or ``np.str_``."""
    forms = (str, lambda name: "".join(name), np.str_)
    samples = []
    for i in range(draw(st.integers(1, 4))):
        picks = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=30))
        opcodes = tuple(draw(st.sampled_from(forms))(name) for name in picks)
        samples.append(OpcodeSequence(f"h{i}", opcodes, draw(st.sampled_from(["a", "b", None]))))
    return samples


def _lazy(sample):
    return OpcodeSequence(sample.sample_id, tuple(sample.opcodes), sample.label)


def _outcome(function):
    """``function()``, or the type and text of the ``EmptyCorpusError`` it raises."""
    try:
        return function()
    except EmptyCorpusError as exc:
        return type(exc), str(exc)


def _assert_coding(sample):
    names, codes = sample.coding
    assert codes.dtype == np.min_scalar_type(max(len(names) - 1, 0)) and codes.dtype.kind == "u"
    assert not codes.flags.writeable
    assert [names[code] for code in codes.tolist()] == list(sample.opcodes)


def _assert_counts_match_lazy_copies(samples):
    lazies = [_lazy(sample) for sample in samples]
    for sample, lazy in zip(samples, lazies):
        _assert_coding(sample)
        assert "coding" not in vars(lazy)  # coded on first use below
        assert lazy == sample and hash(lazy) == hash(sample) and repr(lazy) == repr(sample)
        assert count_bigrams(sample) == count_bigrams(lazy)
        _assert_coding(lazy)
    coded, lazily_coded = code_corpus(samples), code_corpus(lazies)
    assert coded.bigrams == lazily_coded.bigrams
    every, first = range(len(samples)), [0]
    for positions in (every, first):
        for retain in (0.5, 0.9, 1.0):
            vocab = _outcome(lambda: coded.vocabulary(positions, retain))
            assert vocab == _outcome(lambda: lazily_coded.vocabulary(positions, retain))
            if isinstance(vocab, tuple):  # no bigram at all
                continue
            rows, dropped = coded.count_rows(positions, vocab)
            lazy_rows, lazy_dropped = lazily_coded.count_rows(positions, vocab)
            np.testing.assert_array_equal(rows, lazy_rows)
            np.testing.assert_array_equal(dropped, lazy_dropped)
            for sample, lazy in zip(samples, lazies):
                graph, dropped = build_graph(count_bigrams(sample), vocab)
                for found, found_dropped in (
                    graph_for_sequence(sample, vocab), graph_for_sequence(lazy, vocab)
                ):
                    assert found.vector.tobytes() == graph.vector.tobytes()
                    assert found_dropped == dropped


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(loaded_corpora(), generated_corpora(), repeated_name_walks(), hand_built())
)
def test_coding_matches_opcodes_and_counts_like_a_lazy_copy(samples):
    _assert_counts_match_lazy_copies(samples)


def test_producers_store_the_coding(tmp_path):
    samples, manifest = generate_corpus(CorpusConfig(
        families=1, subfamilies_per_family=1, samples_per_subfamily=2,
        benign_sources=1, samples_per_benign_source=2, alphabet_size=300, length_range=(20, 30),
    ))
    loaded = load_corpus(write_corpus(samples, manifest, tmp_path / "corpus"))
    for sample in samples + loaded:
        assert "coding" in vars(sample)
        _assert_coding(sample)
    assert len({id(sample.coding[0]) for sample in samples}) == 1  # the alphabet itself
    assert samples[0].coding[1].dtype == np.uint16
    assert len({id(sample.coding[0]) for sample in loaded}) == 1  # the corpus's names
    names = loaded[0].coding[0]
    assert all(op is names[code] for s in loaded for op, code in zip(s.opcodes, s.coding[1]))


def test_coding_is_not_a_field():
    sample = sample_sequence(
        FamilyModel("f", "f-s0", ("A", "B"), np.array([1.0, 0.0]), np.full((2, 2), 0.5)), 10, 3
    )
    assert [field.name for field in fields(OpcodeSequence)] == ["sample_id", "opcodes", "label"]
    assert "coding" not in repr(sample)
    relabelled = replace(sample, label="other")
    assert "coding" not in vars(relabelled)
    assert set(relabelled.coding[0]) <= {"A", "B"}
    _assert_coding(relabelled)


def test_empty_sample_codes_to_nothing():
    names, codes = OpcodeSequence("e", ()).coding
    assert names == () and codes.dtype == np.uint8 and len(codes) == 0


def _saved_bytes(samples, path, **settings):
    save_database(build_database(samples, **settings), path)
    return path.read_bytes()


@pytest.mark.parametrize(
    "config",
    [
        CorpusConfig(families=2, subfamilies_per_family=2, samples_per_subfamily=5,
                     benign_sources=3, samples_per_benign_source=4, alphabet_size=12,
                     length_range=(50, 150), seed=3),
        DEFAULT_CONFIG,
    ],
    ids=["small", "default-seed-7"],
)
def test_generated_and_loaded_corpora_train_the_same_bytes(config, tmp_path):
    samples, manifest = generate_corpus(config)
    loaded = load_corpus(write_corpus(samples, manifest, tmp_path / "corpus"))
    for monolithic in (False, True):
        generated = _saved_bytes(samples, tmp_path / "generated.sigdb.json", monolithic=monolithic)
        assert generated == _saved_bytes(loaded, tmp_path / "loaded.sigdb.json",
                                         monolithic=monolithic)
