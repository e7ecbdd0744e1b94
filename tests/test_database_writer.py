"""The saver writes exactly what json's indented encoder writes for the database payload.

``save_database`` builds its document text straight from the signatures. The
reference here is the payload dict the saver used to build, dumped with
``json.dumps(..., sort_keys=True, indent=2)``; both must give the same bytes
for every database, valid or not. The loader, in turn, accepts an edited
document only if the database it gives has exactly the document's payload.
"""

import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.errors import DatabaseError
from opsig.opgraph import OpcodeGraph, OpcodeVocabulary
from opsig.signatures import (
    FORMAT_VERSION,
    Signature,
    SignatureDatabase,
    _canonical_text,
    build_database,
    load_database,
    save_database,
)
from opsig.synthcorpus import CorpusConfig, generate_corpus

from helpers import monolithic_document, trained_metadata


def database_payload(db: SignatureDatabase) -> dict[str, object]:
    """The database as a JSON object, each row map keyed by row, then column index."""
    vocab = db.vocabulary
    cells = np.stack([vocab.cell_rows, vocab.cell_cols], axis=1).tolist()
    entries = []
    for sig in db.signatures:
        rows: dict[str, dict[str, float]] = {}
        vector = sig.graph.vector
        nonzero = np.flatnonzero(vector)
        for slot, weight in zip(nonzero.tolist(), vector[nonzero].tolist()):
            r, c = cells[slot]
            rows.setdefault(str(r), {})[str(c)] = weight
        entries.append(
            {
                "id": sig.signature_id,
                "label": sig.class_label,
                "member_count": sig.member_count,
                "round_tag": sig.round_tag,
                "rows": rows,
            }
        )
    return {
        "version": FORMAT_VERSION,
        "metadata": db.metadata,
        "vocabulary": {
            "opcodes": list(vocab.opcodes),
            "retain_fraction": vocab.retain_fraction,
            "retained_bigrams": cells,
        },
        "signatures": entries,
    }


def reference_document(db: SignatureDatabase) -> bytes:
    payload = database_payload(db)
    checksum = hashlib.sha256(_canonical_text(payload).encode("utf-8")).hexdigest()
    text = json.dumps(dict(payload, checksum=checksum), sort_keys=True, indent=2) + "\n"
    return text.encode("utf-8")


# a space, a quote, a backslash, control characters and non-ASCII letters
_AWKWARD = st.text(st.sampled_from(' "\\\n\t\x00\x1fé名😀aZ0/'), max_size=4)
_WEIGHTS = st.sampled_from(
    [0.0, 0.0, 1.0, 0.1 + 0.2, 5e-324, 1 / 3, 0.5, 1e-7, 123.0, -2.5,
     float("nan"), float("inf"), float("-inf")]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False) | _AWKWARD,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_AWKWARD, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def databases(draw, normalised: bool):
    """A hand-built database: a small vocabulary and 0 to 4 signatures over it.

    With ``normalised`` each signature has some weight and each row of it
    sums to 0 or 1; otherwise weights are drawn as they come, NaN included.
    """
    size = draw(st.integers(1, 12))  # from 11 opcodes on, key "10" sorts before "2"
    opcodes = tuple(sorted(draw(st.sets(_AWKWARD, min_size=size, max_size=size))))
    pairs = [(i, j) for i in range(size) for j in range(size)]
    retained = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=40))
    vocab = OpcodeVocabulary(
        opcodes, frozenset((opcodes[i], opcodes[j]) for i, j in retained),
        draw(st.sampled_from([1.0, 0.9, 0.1 + 0.2])),
    )
    slots = len(vocab.flat_cells)
    signatures = []
    for ordinal in range(draw(st.integers(0, 4))):
        label = draw(_AWKWARD.filter(bool) if normalised else _AWKWARD)
        tag = draw(_AWKWARD)
        vector = np.array(draw(st.lists(_WEIGHTS, min_size=slots, max_size=slots)))
        if normalised:
            vector = np.abs(np.nan_to_num(vector, posinf=1.0, neginf=1.0))
            vector[draw(st.integers(0, slots - 1))] = 1.0
            sums = np.bincount(vocab.cell_rows, weights=vector, minlength=size)
            vector = vector / np.where(sums > 0.0, sums, 1.0)[vocab.cell_rows]
        signatures.append(
            Signature(f"{label}/{tag}/{ordinal}", label, OpcodeGraph.from_vector(vocab, vector),
                      draw(st.integers(1, 5)), tag)
        )
    metadata = draw(st.dictionaries(_AWKWARD, _JSON, max_size=4))
    return SignatureDatabase(vocab, tuple(signatures), metadata)


@settings(max_examples=150, deadline=None)
@given(db=st.booleans().flatmap(lambda normalised: databases(normalised)))
def test_written_bytes_equal_the_indented_dump(db, tmp_path_factory):
    path = tmp_path_factory.mktemp("writer") / "db.sigdb.json"
    save_database(db, path)
    assert path.read_bytes() == reference_document(db)


@settings(max_examples=100, deadline=None)
@given(db=databases(normalised=True))
def test_valid_database_loads_back_equal(db, tmp_path_factory):
    db = replace(db, metadata=trained_metadata(db.vocabulary))  # the loader checks metadata
    path = tmp_path_factory.mktemp("writer") / "db.sigdb.json"
    save_database(db, path)
    assert path.read_bytes() == reference_document(db)
    assert load_database(path) == db


def test_database_without_signatures(tmp_path):
    vocab = OpcodeVocabulary(("A", "B"), frozenset({("A", "B")}), 0.9)
    db = SignatureDatabase(vocab, (), trained_metadata(vocab))
    save_database(db, tmp_path / "empty.sigdb.json")
    assert (tmp_path / "empty.sigdb.json").read_bytes() == reference_document(db)
    assert load_database(tmp_path / "empty.sigdb.json") == db


def test_trained_database_past_ten_opcodes(tmp_path):
    config = CorpusConfig(
        families=2, subfamilies_per_family=2, samples_per_subfamily=4, benign_sources=2,
        samples_per_benign_source=2, alphabet_size=16, length_range=(60, 120), seed=5,
    )
    db = build_database(generate_corpus(config)[0])
    assert db.vocabulary.size > 10
    save_database(db, tmp_path / "trained.sigdb.json")
    assert (tmp_path / "trained.sigdb.json").read_bytes() == reference_document(db)


@pytest.mark.parametrize("monolithic, digest", [
    (False, "1b3ac990723165987bd75fba6a46df6340d0e0a95fd836e685e3094baea66c42"),
    (True, "1a0a4b0ca8cf392405b90f34caba7f5601bc3024fdc970d160f03362f5089790"),
])
def test_database_past_a_hundred_opcodes_pinned(monolithic, digest, tmp_path):
    # three-digit keys sort between two-digit ones: "10" < "100" < "11"
    config = CorpusConfig(
        alphabet_size=200, families=3, subfamilies_per_family=2, samples_per_subfamily=5,
        benign_sources=4, samples_per_benign_source=3, length_range=(300, 600),
    )
    db = build_database(generate_corpus(config)[0], monolithic=monolithic)
    assert db.vocabulary.size > 100
    save_database(db, tmp_path / "wide.sigdb.json")
    assert hashlib.sha256((tmp_path / "wide.sigdb.json").read_bytes()).hexdigest() == digest


def test_spaced_label_with_integer_metadata_keys(tmp_path):
    # json.dumps sorts the keys 9 < 10 and then spells them, while decoded "10" < "9"
    vocab = OpcodeVocabulary(("A", "B"), frozenset({("A", "B"), ("B", "A")}), 0.9)
    graph = OpcodeGraph.from_vector(vocab, np.array([1.0, 1.0]))
    db = SignatureDatabase(
        vocab, (Signature("fam 0/r1/0", "fam 0", graph, 2, "r1"),), {9: "x", 10: "y"}
    )
    save_database(db, tmp_path / "spaced.sigdb.json")
    assert (tmp_path / "spaced.sigdb.json").read_bytes() == reference_document(db)


def _nodes(node, path=()):
    """Every value in the JSON tree ``node`` with its path of keys, ``node`` itself first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _nodes(child, (*path, key))


_SAVED = json.loads((Path(__file__).parent / "data" / "saved_v1.sigdb.json").read_text())
_DOCUMENTS = (_SAVED, monolithic_document(_SAVED))


@st.composite
def edited_documents(draw):
    """A saved document with one value replaced, or one key or item deleted, or one key added.

    A new value is an arbitrary JSON value, a small number or any value of
    the document itself, so that many edited documents are still valid.
    """
    doc = copy.deepcopy(draw(st.sampled_from(_DOCUMENTS)))
    nodes = list(_nodes(doc))
    values = st.one_of(
        _JSON, st.integers(-1, 12), st.floats(0, 1),
        st.sampled_from([n for _, n in nodes]).map(copy.deepcopy),
    )
    node = draw(st.sampled_from([n for _, n in nodes if type(n) is dict or type(n) is list and n]))
    keys = list(node) if type(node) is dict else list(range(len(node)))
    edits = ["add"] if type(node) is dict else []
    edit = draw(st.sampled_from(edits + ["replace", "delete"] * bool(keys)))
    if edit == "add":
        names = sorted({str(key) for path, _ in nodes for key in path})
        node[draw(st.sampled_from(names) | _AWKWARD)] = draw(values)
    elif edit == "delete":
        del node[draw(st.sampled_from(keys))]
    else:
        node[draw(st.sampled_from(keys))] = draw(values)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=edited_documents())
def test_edited_document_fails_or_loads_its_payload(doc, tmp_path_factory):
    payload = {key: value for key, value in doc.items() if key != "checksum"}
    checksum = hashlib.sha256(_canonical_text(payload).encode("utf-8")).hexdigest()
    path = tmp_path_factory.mktemp("edited") / "db.sigdb.json"
    path.write_text(json.dumps(dict(payload, checksum=checksum), sort_keys=True, indent=2))
    try:
        db = load_database(path)
    except DatabaseError:
        return
    assert database_payload(db) == payload
