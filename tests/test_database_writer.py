"""The saver writes exactly what json's indented encoder writes for the database payload.

``save_database`` builds its document text straight from the signatures. The
reference here is the payload dict the saver used to build, dumped with
``json.dumps(..., sort_keys=True, indent=2)``; both must give the same bytes
for every database, valid or not.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

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

from helpers import trained_metadata


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
