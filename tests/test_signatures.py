import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opsig.errors import (
    ChecksumMismatchError,
    DatabaseFormatError,
    EmptyCorpusError,
    EmptySampleError,
    UnsupportedVersionError,
)
from opsig import signatures
from opsig.classifier import classify
from opsig.ingest import OpcodeSequence
from opsig.opgraph import build_graph, count_bigrams, graph_for_sequence, merge_counts
from opsig.signatures import (
    SignatureDatabase,
    build_database,
    build_signature,
    load_database,
    save_database,
)
from opsig.synthcorpus import (
    CorpusConfig,
    default_alphabet,
    generate_corpus,
    make_family_model,
    sample_sequence,
)

from helpers import monolithic_document

DATA = Path(__file__).parent / "data"


# each one bad on its own; a ``bool`` is no number here, and a float is no count
BAD_SETTINGS = [
    {"retain_fraction": 0.0},
    {"retain_fraction": True},
    {"eps_schedule": (0.1, 0.01)},
    {"eps_schedule": 0.1},
    {"eps_schedule": None},
    {"eps_schedule": "0.1"},
    {"min_pts": 0},
    {"min_pts": 1.5},
    {"seed": -1},
    {"seed": 2.7},
]


def _no_coding(samples):
    raise AssertionError("the corpus was coded before its settings were checked")


def toy_corpus():
    """Three tiny classes with distinct bigram structure."""
    samples = []
    for i in range(4):
        samples.append(OpcodeSequence(f"a{i}", ("MOV", "PUSH") * 10, "famA"))
        samples.append(OpcodeSequence(f"b{i}", ("CALL", "RET") * 10, "famB"))
        samples.append(OpcodeSequence(f"n{i}", ("XOR", "NOP", "ADD") * 8, "benign"))
    return samples


def validity_corpus():
    """Three small Markov families over a 12-opcode alphabet."""
    alphabet = default_alphabet(12)
    corpus = []
    for f, label in enumerate(("benign", "famA", "famB")):
        model = make_family_model(alphabet, [50, f], family_label=label)
        for k in range(4):
            corpus.append(sample_sequence(model, 300, [51, f, k], sample_id=f"{label}{k}"))
    return corpus


def merged_graph(samples, vocab):
    """The reference signature: one graph from the members' merged counts."""
    return build_graph(merge_counts(count_bigrams(s) for s in samples), vocab)[0]


class TestBuildSignature:
    """A signature is the graph of its members' merged counts (one-class corpora)."""

    def test_singleton_equals_member_graph(self, seq1):
        db = build_database([seq1], retain_fraction=1.0)
        (sig,) = db.signatures
        member_graph, _ = build_graph(count_bigrams(seq1), db.vocabulary)
        np.testing.assert_array_equal(sig.graph.weights, member_graph.weights)
        assert sig.member_count == 1
        assert sig.signature_id == "famA/singleton/0"

    def test_merged_push_row(self, seq1, seq2, table1_vocab):
        samples = [OpcodeSequence(s.sample_id, s.opcodes, "fam") for s in (seq1, seq2)]
        db = build_database(samples, retain_fraction=1.0, monolithic=True)
        assert db.vocabulary == table1_vocab
        (sig,) = db.signatures
        idx = table1_vocab.index
        row = sig.graph.weights[idx["PUSH"]]
        # hand merge: PUSH outgoing {POP:1, PUSH:1, CALL:1} + {PUSH:1, POP:1, MOV:1}
        assert row[idx["POP"]] == 2 / 6
        assert row[idx["PUSH"]] == 2 / 6
        assert row[idx["CALL"]] == 1 / 6
        assert row[idx["MOV"]] == 1 / 6

    def test_identical_members_normalize_to_member_graph(self, seq1):
        for copies in (2, 5):
            samples = [OpcodeSequence(f"c{i}", seq1.opcodes, "fam") for i in range(copies)]
            db = build_database(samples, retain_fraction=1.0, monolithic=True)
            member_graph, _ = build_graph(count_bigrams(seq1), db.vocabulary)
            np.testing.assert_array_equal(db.signatures[0].graph.weights, member_graph.weights)

    def test_empty_member_list_rejected(self, table1_vocab):
        rows = np.zeros((0, len(table1_vocab.flat_cells)))
        with pytest.raises(ValueError):
            build_signature(rows, table1_vocab, "fam", "singleton", 0)


class TestBuildClassSignatures:
    def test_single_sample_yields_singleton(self, seq1):
        sigs = build_database([seq1], retain_fraction=1.0).signatures
        assert len(sigs) == 1
        assert sigs[0].round_tag == "singleton"
        assert sigs[0].member_count == 1

    def test_identical_samples_yield_one_cluster_signature(self):
        samples = [OpcodeSequence(f"s{i}", ("MOV", "POP", "CALL") * 5, "fam") for i in range(5)]
        sigs = build_database(samples, retain_fraction=1.0).signatures
        assert len(sigs) == 1
        assert sigs[0].round_tag == "r1"
        assert sigs[0].member_count == 5

    def test_planted_subfamilies_recovered(self):
        alphabet = default_alphabet(40)
        samples = []
        truth = {}
        for j in range(3):
            model = make_family_model(alphabet, [100, j], family_label="fam")
            for k in range(6):
                sid = f"fam-{j}-{k}"
                samples.append(sample_sequence(model, 1000, [200, j, k], sample_id=sid))
                truth[sid] = j
        db = build_database(samples, 1.0, (0.01, 0.1), 3)
        sigs = db.signatures
        assert len(sigs) == 3
        assert sorted(s.member_count for s in sigs) == [6, 6, 6]
        # each signature graph must equal the merge of exactly one planted source
        for j in range(3):
            members = [s for s in samples if truth[s.sample_id] == j]
            expected = merged_graph(members, db.vocabulary).weights
            assert any(np.array_equal(sig.graph.weights, expected) for sig in sigs)


class TestMonolithicSignature:
    def test_equals_signature_over_all_members(self):
        samples = [
            OpcodeSequence("x1", ("MOV", "POP", "MOV", "CALL"), "fam"),
            OpcodeSequence("x2", ("CALL", "PUSH", "CALL"), "fam"),
        ]
        db = build_database(samples, retain_fraction=1.0, monolithic=True)
        (mono,) = db.signatures
        direct = merged_graph(samples, db.vocabulary)
        np.testing.assert_array_equal(mono.graph.weights, direct.weights)
        assert mono.round_tag == "monolithic"
        assert mono.member_count == 2

    def test_single_sample_class(self, seq1):
        db = build_database([seq1], retain_fraction=1.0, monolithic=True)
        member_graph, _ = build_graph(count_bigrams(seq1), db.vocabulary)
        np.testing.assert_array_equal(db.signatures[0].graph.weights, member_graph.weights)


def labelled_corpora():
    """Up to three classes of short random sequences over six opcodes."""
    opcodes = st.sampled_from(("MOV", "PUSH", "POP", "CALL", "RET", "JMP"))
    sequences = st.lists(opcodes, min_size=2, max_size=30).map(tuple)
    classes = st.lists(st.lists(sequences, min_size=1, max_size=5), min_size=1, max_size=3)
    return classes.map(
        lambda groups: [
            OpcodeSequence(f"c{c}-{i}", ops, f"c{c}")
            for c, group in enumerate(groups)
            for i, ops in enumerate(group)
        ]
    )


@settings(max_examples=60, deadline=None)
@given(labelled_corpora(), st.sampled_from((0.5, 0.9, 1.0)))
def test_monolithic_signature_is_graph_of_merged_counts(corpus, retain):
    db = build_database(corpus, retain_fraction=retain, monolithic=True)
    for sig in db.signatures:
        members = [s for s in corpus if s.label == sig.class_label]
        expected = merged_graph(members, db.vocabulary)
        assert sig.member_count == len(members)
        assert sig.graph.vector.tobytes() == expected.vector.tobytes()


class TestBuildDatabase:
    def test_classes_and_metadata(self):
        db = build_database(toy_corpus(), retain_fraction=1.0, seed=3)
        assert db.class_labels == ("benign", "famA", "famB")
        assert db.metadata["retain_fraction"] == 1.0
        assert db.metadata["eps_schedule"] == [0.01, 0.1]
        assert db.metadata["min_pts"] == 3
        assert db.metadata["seed"] == 3
        ids = [s.signature_id for s in db.signatures]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_monolithic_mode(self):
        db = build_database(toy_corpus(), retain_fraction=1.0, monolithic=True)
        assert len(db.signatures) == 3
        assert all(s.round_tag == "monolithic" for s in db.signatures)

    def test_sample_without_opcodes_rejected(self):
        corpus = toy_corpus() + [OpcodeSequence("a-empty", (), "famA")]
        with pytest.raises(EmptySampleError, match="a-empty"):
            build_database(corpus)

    def test_corpus_without_bigrams_rejected(self):
        corpus = [OpcodeSequence(f"s{i}", (op,), "famA") for i, op in enumerate(("MOV", "POP"))]
        with pytest.raises(EmptyCorpusError, match="zero bigrams"):
            build_database(corpus)

    @pytest.mark.parametrize("label", [None, ""], ids=["none", "empty"])  # "" cannot load
    def test_unlabelled_sample_rejected(self, label):
        corpus = toy_corpus() + [OpcodeSequence("x0", ("MOV", "PUSH"), label)]
        with pytest.raises(ValueError, match="'x0' has no class label"):
            build_database(corpus)

    def test_sample_without_retained_bigram_gets_no_signature(self):
        """A weightless signature would sit closest to every short sample."""
        config = CorpusConfig(
            families=2, subfamilies_per_family=1, samples_per_subfamily=6, benign_sources=2,
            samples_per_benign_source=3, alphabet_size=12, length_range=(100, 200), seed=3,
        )
        corpus = generate_corpus(config)[0]
        fam01 = next(s for s in corpus if s.label == "fam01")
        short = OpcodeSequence("short", fam01.opcodes[:4])
        odd = OpcodeSequence("odd-000", ("ZZZ", "QQQ"), "fam00")
        plain, db = build_database(corpus), build_database(corpus + [odd])
        assert all(sig.graph.vector.any() for sig in db.signatures)
        expected = classify(graph_for_sequence(short, plain.vocabulary)[0], plain)
        actual = classify(graph_for_sequence(short, db.vocabulary)[0], db)
        assert actual.predicted_label == expected.predicted_label

    @pytest.mark.parametrize("monolithic", [False, True])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"eps_schedule": (0.5, -3.0, 0.0)}, "eps values must lie in"),
            ({"eps_schedule": (0.1, 0.01)}, "strictly increasing"),
            ({"min_pts": -4}, "min_pts must be >= 1"),
            ({"min_pts": 0}, "min_pts must be >= 1"),
            ({"seed": -5}, "seed must be >= 0"),
            ({"retain_fraction": True}, r"retain_fraction must be in \(0, 1\], got True"),
            ({"min_pts": 1.5}, "min_pts must be an integer, got 1.5"),
            ({"min_pts": True}, "min_pts must be an integer, got True"),
            ({"seed": 2.7}, "seed must be an integer, got 2.7"),
            ({"seed": False}, "seed must be an integer, got False"),
        ],
    )
    def test_both_modes_reject_the_same_settings(self, monolithic, setting, message):
        """A monolithic database must not record settings that clustering rejects.

        A float ``min_pts`` or ``seed`` would be recorded truncated, and ``True``
        as a retain fraction would save a database that cannot be loaded.
        """
        with pytest.raises(ValueError, match=message):
            build_database(toy_corpus(), monolithic=monolithic, **setting)

    def test_numpy_integer_settings_accepted(self):
        db = build_database(toy_corpus(), min_pts=np.int64(2), seed=np.int32(3))
        assert db == build_database(toy_corpus(), min_pts=2, seed=3)
        assert type(db.metadata["min_pts"]) is int and type(db.metadata["seed"]) is int

    @pytest.mark.parametrize("setting", BAD_SETTINGS)
    def test_bad_setting_raised_before_coding(self, monkeypatch, setting):
        monkeypatch.setattr(signatures, "code_corpus", _no_coding)
        with pytest.raises(ValueError):
            build_database(toy_corpus(), **setting)

    @pytest.mark.parametrize("monolithic", [False, True])
    def test_class_without_retained_bigram_gets_no_signature(self, monolithic):
        corpus = toy_corpus() + [OpcodeSequence("z0", ("ZZZ", "QQQ"), "famZ")]
        db = build_database(corpus, retain_fraction=0.9, monolithic=monolithic)
        assert "famZ" not in db.class_labels
        assert db.class_labels == ("benign", "famA", "famB")


class TestSaveLoad:
    def test_round_trip_structural_equality(self, tmp_path):
        db = build_database(toy_corpus(), retain_fraction=1.0)
        path = tmp_path / "toy.sigdb.json"
        save_database(db, path)
        loaded = load_database(path)
        assert loaded == db

    def test_save_load_save_byte_identical(self, tmp_path):
        db = build_database(toy_corpus(), retain_fraction=0.9)
        first = tmp_path / "one.sigdb.json"
        second = tmp_path / "two.sigdb.json"
        save_database(db, first)
        save_database(load_database(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_integer_retain_fraction_resaves_identically(self, tmp_path):
        db = build_database(toy_corpus(), retain_fraction=1)
        assert type(db.vocabulary.retain_fraction) is float
        first = tmp_path / "one.sigdb.json"
        second = tmp_path / "two.sigdb.json"
        save_database(db, first)
        save_database(load_database(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        corpus = toy_corpus()
        a, b = tmp_path / "a.sigdb.json", tmp_path / "b.sigdb.json"
        save_database(build_database(corpus, retain_fraction=1.0), a)
        save_database(build_database(corpus, retain_fraction=1.0), b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_bump_rejected(self, tmp_path):
        db = build_database(toy_corpus(), retain_fraction=1.0)
        path = tmp_path / "v.sigdb.json"
        save_database(db, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError):
            load_database(path)

    def test_tampered_weights_fail_checksum(self, tmp_path):
        db = build_database(toy_corpus(), retain_fraction=1.0)
        path = tmp_path / "c.sigdb.json"
        save_database(db, path)
        doc = json.loads(path.read_text())
        entry = doc["signatures"][0]
        row = next(iter(entry["rows"].values()))
        col = next(iter(row))
        row[col] = 0.123456
        path.write_text(json.dumps(doc))
        with pytest.raises(ChecksumMismatchError):
            load_database(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.sigdb.json"
        path.write_text("{not json")
        with pytest.raises(DatabaseFormatError):
            load_database(path)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "nov.sigdb.json"
        path.write_text(json.dumps({"metadata": {}}))
        with pytest.raises(DatabaseFormatError):
            load_database(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "utf16.sigdb.json"
        path.write_bytes(b"\xff\xfe\x00\x01")
        with pytest.raises(DatabaseFormatError, match=r"utf16\.sigdb\.json: not UTF-8 text"):
            load_database(path)

    def test_too_deep_json_rejected(self, tmp_path):
        path = tmp_path / "deep.sigdb.json"
        path.write_text("[" * 200_000)
        with pytest.raises(DatabaseFormatError, match=r"deep\.sigdb\.json: JSON nested too"):
            load_database(path)

    def test_integer_past_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "long.sigdb.json"
        path.write_text('{"version": ' + "1" * 5_000 + "}")
        with pytest.raises(DatabaseFormatError, match=r"long\.sigdb\.json: cannot decode JSON"):
            load_database(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_database(tmp_path / "gone.sigdb.json")

    def test_default_database_bytes_pinned(self, tmp_path):
        path = tmp_path / "default.sigdb.json"
        save_database(build_database(generate_corpus()[0]), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "edd0b9f7b072ec52eb012ae8dd90b983fa4247d23f310661c2c53a189f3b3c91"

    def test_three_round_database_bytes_pinned(self, tmp_path):
        # seed 7 under this schedule: 19/22/20 signatures in rounds r1/r2/r3, 2 singletons
        path = tmp_path / "three_round.sigdb.json"
        db = build_database(generate_corpus()[0], eps_schedule=(0.005, 0.02, 0.1), min_pts=2)
        save_database(db, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "0fea2675f3ce9b03e8eb06f5b4bd54ab8db80b97872ee08bdf12af4a0f2087ed"

    def test_earlier_release_database_loads_equal(self, tmp_path):
        # written by commit 52ad75e, whose loader parsed index keys as numbers
        saved = DATA / "saved_v1.sigdb.json"
        loaded = load_database(saved)
        assert loaded == build_database(validity_corpus(), retain_fraction=0.9)
        save_database(loaded, tmp_path / "again.sigdb.json")
        assert (tmp_path / "again.sigdb.json").read_bytes() == saved.read_bytes()


def _signed(payload):
    """A document whose checksum is taken over the JSON bytes ``payload``, laid out compactly."""
    sha = hashlib.sha256(payload).hexdigest().encode("ascii")
    return b'{"checksum":"' + sha + b'",' + payload[1:]


def _no_reencoding(payload):
    raise AssertionError("the payload was re-encoded")


class TestLoadPaths:
    """A file as the saver writes it is decoded once; any other one by re-encoding its payload."""

    @pytest.fixture
    def saved(self, tmp_path):
        db = build_database(validity_corpus(), retain_fraction=0.9)
        path = tmp_path / "s.sigdb.json"
        save_database(db, path)
        return path, db

    def test_saved_database_loads_without_reencoding(self, saved, monkeypatch):
        path, db = saved
        monkeypatch.setattr(signatures, "_canonical_text", _no_reencoding)
        assert load_database(path) == db

    def test_crlf_copy_loads_without_reencoding(self, saved, monkeypatch):
        path, db = saved
        crlf = path.with_name("crlf.sigdb.json")
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        monkeypatch.setattr(signatures, "_canonical_text", _no_reencoding)
        assert load_database(crlf) == db

    def test_label_with_space_loads_through_reencoding(self, tmp_path, monkeypatch):
        spaced = {"benign": "benign", "famA": "fam 00", "famB": "fam 01"}
        corpus = [OpcodeSequence(s.sample_id, s.opcodes, spaced[s.label]) for s in validity_corpus()]
        db = build_database(corpus, retain_fraction=0.9)
        first, second = tmp_path / "one.sigdb.json", tmp_path / "two.sigdb.json"
        save_database(db, first)
        encoded = []
        canonical_text = signatures._canonical_text

        def counted(payload):
            encoded.append(payload)
            return canonical_text(payload)

        monkeypatch.setattr(signatures, "_canonical_text", counted)
        loaded = load_database(first)
        assert encoded and loaded == db
        save_database(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_weight_edited_in_place_fails_checksum(self, saved):
        path, _ = saved
        stored = path.read_bytes()
        weight = re.search(rb'"[0-9]+": 0\.([0-9])', stored)  # a row-map cell, not metadata
        digit = b"%d" % ((int(weight.group(1)) + 1) % 10)
        path.write_bytes(stored[: weight.start(1)] + digit + stored[weight.end(1) :])
        with pytest.raises(ChecksumMismatchError):
            load_database(path)

    @pytest.mark.parametrize(
        "payload, error, message",
        [
            (b'{"label":"\xff","version":1}', DatabaseFormatError, r"p\.sigdb\.json: not UTF-8 text"),
            (b'{"version":1,', DatabaseFormatError, r"p\.sigdb\.json: cannot decode JSON"),
            (b'{"version":2}', UnsupportedVersionError, r"unsupported database version 2"),
        ],
    )
    def test_signed_payload_errors(self, tmp_path, payload, error, message):
        path = tmp_path / "p.sigdb.json"
        path.write_bytes(_signed(payload))
        with pytest.raises(error, match=message):
            load_database(path)


_AWKWARD_NAMES = st.lists(
    st.sampled_from(("a", "Z", " ", "\t", '": ', '"', "\\")), min_size=1, max_size=4
).map("".join)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_AWKWARD_NAMES, min_size=2, max_size=4, unique=True),
    st.lists(_AWKWARD_NAMES, min_size=1, max_size=3, unique=True),
    st.data(),
)
def test_awkward_names_round_trip(tmp_path_factory, opcodes, labels, data):
    # a space inside a string sends the file down the re-encoding path; tabs, quotes and
    # backslashes are escaped in the saved text, so names holding only those load in one decode
    sequences = st.lists(st.sampled_from(opcodes), min_size=2, max_size=12).map(tuple)
    corpus = [
        OpcodeSequence(f"{c}-{i}", ops, label)
        for c, label in enumerate(labels)
        for i, ops in enumerate(data.draw(st.lists(sequences, min_size=1, max_size=3)))
    ]
    db = build_database(corpus, retain_fraction=1.0)
    first = tmp_path_factory.getbasetemp() / "awkward.sigdb.json"
    second = first.with_name("awkward-again.sigdb.json")
    save_database(db, first)
    loaded = load_database(first)
    assert loaded == db
    save_database(loaded, second)
    assert first.read_bytes() == second.read_bytes()


class TestDatabaseValidation:
    def test_duplicate_ids_rejected(self, seq1):
        db = build_database([seq1], retain_fraction=1.0)
        (sig,) = db.signatures
        with pytest.raises(ValueError):
            SignatureDatabase(db.vocabulary, (sig, sig), {})

    def test_signature_on_other_vocabulary_rejected(self, seq1, seq2):
        db = build_database([seq1], retain_fraction=1.0)
        other = build_database([seq2], retain_fraction=1.0).signatures[0]
        with pytest.raises(ValueError, match="uses a different vocabulary"):
            SignatureDatabase(db.vocabulary, (*db.signatures, other), {})


def _resign(path, doc, sort_keys=True):
    """Write ``doc`` back with a freshly computed, valid checksum."""
    payload = {key: value for key, value in doc.items() if key != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(doc, sort_keys=sort_keys, indent=2) + "\n")


class TestLoadValidity:
    """Edited documents with a valid checksum must still describe a valid model."""

    @pytest.fixture
    def saved(self, tmp_path):
        db = build_database(validity_corpus(), retain_fraction=0.9)
        path = tmp_path / "v.sigdb.json"
        save_database(db, path)
        return path, json.loads(path.read_text()), db

    @staticmethod
    def _first_cell(doc):
        rows = doc["signatures"][0]["rows"]
        row_key = sorted(rows, key=int)[0]
        col_key = sorted(rows[row_key], key=int)[0]
        return rows, row_key, col_key

    def test_resigned_unchanged_document_loads(self, saved):
        path, doc, db = saved
        _resign(path, doc)
        assert load_database(path) == db

    @pytest.mark.parametrize("bad", ["-1", "99"])
    def test_bad_column_index_rejected(self, saved, bad):
        path, doc, _ = saved
        rows, row_key, col_key = self._first_cell(doc)
        rows[row_key][bad] = rows[row_key].pop(col_key)
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"cell index"):
            load_database(path)

    @pytest.mark.parametrize("bad", ["-1", "99"])
    def test_bad_row_index_rejected(self, saved, bad):
        path, doc, _ = saved
        rows, row_key, _ = self._first_cell(doc)
        rows[bad] = rows.pop(row_key)
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"cell index"):
            load_database(path)

    @pytest.mark.parametrize("bad", ["", "1 2", "1,2", "x"])
    def test_non_integer_index_key_rejected(self, saved, bad):
        path, doc, _ = saved
        rows, row_key, col_key = self._first_cell(doc)
        rows[row_key][bad] = rows[row_key].pop(col_key)
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError):
            load_database(path)

    @pytest.mark.parametrize("prefix", ["0", " ", "+"])
    @pytest.mark.parametrize("which", ["row", "column"])
    def test_respelled_index_key_rejected(self, saved, prefix, which):
        path, doc, _ = saved
        rows, row_key, col_key = self._first_cell(doc)
        if which == "row":
            rows[prefix + row_key] = rows.pop(row_key)
        else:
            rows[row_key][prefix + col_key] = rows[row_key].pop(col_key)
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"single integers in \[0, 6\), got '"):
            load_database(path)

    @pytest.mark.parametrize("split", [False, True])
    def test_trailing_empty_key_rejected(self, saved, split):
        path, doc, _ = saved
        # a trailing "" yields one integer too few, which "a,b" would make up for
        rows = doc["signatures"][-1]["rows"]
        last = rows[list(rows)[-1]]
        if split:
            col_key = next(iter(last))
            last[f"{col_key},{col_key}"] = last.pop(col_key)
        last[""] = 0.0
        _resign(path, doc, sort_keys=False)  # keep "" as the very last key
        with pytest.raises(DatabaseFormatError, match=r"single integers"):
            load_database(path)

    def test_bad_retained_bigram_index_rejected(self, saved):
        path, doc, _ = saved
        doc["vocabulary"]["retained_bigrams"][0] = [-1, 0]
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"bigram index"):
            load_database(path)

    @pytest.mark.parametrize("bad", [-1.0, 5.0, float("nan")])
    def test_retain_fraction_outside_unit_interval_rejected(self, saved, bad):
        path, doc, _ = saved
        doc["vocabulary"]["retain_fraction"] = bad
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"retain_fraction must be in \(0, 1\]"):
            load_database(path)

    def test_integer_retain_fraction_still_loads(self, saved):
        """Files saved before the vocabulary stored a float may hold an integer."""
        path, doc, _ = saved
        doc["vocabulary"]["retain_fraction"] = 1
        doc["metadata"]["retain_fraction"] = 1  # training records the vocabulary's fraction
        _resign(path, doc)
        retain_fraction = load_database(path).vocabulary.retain_fraction
        assert type(retain_fraction) is float and retain_fraction == 1.0

    def test_weight_off_retained_support_rejected(self, saved):
        path, doc, db = saved
        vocab = db.vocabulary
        retained = {tuple(pair) for pair in doc["vocabulary"]["retained_bigrams"]}
        rows, row_key, col_key = self._first_cell(doc)
        row = int(row_key)
        free = next(c for c in range(vocab.size) if (row, c) not in retained)
        # move half of one weight to a cell outside the support; the row still sums to 1
        half = rows[row_key][col_key] / 2.0
        rows[row_key][col_key] = half
        rows[row_key][str(free)] = half
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"not retained"):
            load_database(path)

    def test_row_sum_not_zero_or_one_rejected(self, saved):
        path, doc, _ = saved
        rows, row_key, col_key = self._first_cell(doc)
        rows[row_key][col_key] *= 0.5
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"sum to 0 or 1"):
            load_database(path)

    def test_negative_weight_rejected(self, saved):
        path, doc, _ = saved
        row = next(
            row for entry in doc["signatures"] for row in entry["rows"].values() if len(row) >= 2
        )
        first, second = sorted(row)[:2]
        # negate one weight and add twice its value to another: the sum stays 1
        row[second] += 2.0 * row[first]
        row[first] = -row[first]
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"\(0, 1\]"):
            load_database(path)

    def test_cell_listed_twice_rejected(self, saved):
        path, doc, _ = saved
        rows, row_key, col_key = self._first_cell(doc)
        rows[row_key]["0" + col_key] = rows[row_key][col_key]  # the same column, spelled twice
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"single integers"):
            load_database(path)

    def test_duplicate_opcode_rejected(self, saved):
        path, doc, _ = saved
        opcodes = doc["vocabulary"]["opcodes"]
        opcodes[1] = opcodes[0]
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"duplicate opcodes"):
            load_database(path)

    def test_signature_without_weight_rejected(self, tmp_path):
        path = tmp_path / "weightless.sigdb.json"
        doc = json.loads((DATA / "saved_v1.sigdb.json").read_text())
        doc["signatures"][1]["rows"] = {}
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"signature 'famA/r2/0' has no weight"):
            load_database(path)

    @pytest.mark.parametrize("only_row", [False, True])
    def test_empty_row_map_rejected(self, tmp_path, only_row):
        # an empty row map adds no weight, so the signature would load and re-save without it
        path = tmp_path / "empty-row.sigdb.json"
        doc = json.loads((DATA / "saved_v1.sigdb.json").read_text())
        entry = doc["signatures"][1]  # famA/r2/0, with weight on rows 2, 4 and 5
        entry["rows"] = {"3": {}} if only_row else dict(entry["rows"], **{"0": {}})
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"'famA/r2/0' has an empty row map"):
            load_database(path)

    @pytest.mark.parametrize(
        "where, name",
        [((), "the document"), (("vocabulary",), "vocabulary"), (("signatures", 2), "a signature")],
        ids=["top", "vocabulary", "signature"],
    )
    @pytest.mark.parametrize("sort_keys", [True, False])  # the one-decode path, then the other
    def test_unknown_key_rejected(self, saved, where, name, sort_keys):
        path, doc, _ = saved
        target = doc
        for step in where:
            target = target[step]
        target["note"] = "ignored"
        _resign(path, doc, sort_keys=sort_keys)
        with pytest.raises(DatabaseFormatError, match=rf"{name} has unknown keys \['note'\]"):
            load_database(path)

    def test_second_checksum_key_rejected(self, saved):
        # the stored checksum signs bytes that carry a checksum key of their own
        path, doc, _ = saved
        del doc["checksum"]
        signed = json.dumps(dict(doc, checksum="x"), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(signed.encode("utf-8")).hexdigest()
        path.write_text(f'{{"checksum":"{digest}",{signed[1:]}')
        with pytest.raises(DatabaseFormatError, match=r"document has unknown keys \['checksum'\]"):
            load_database(path)

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("id", "x", r"signature id 'x' is not benign/r1/<n>"),
            ("id", "benign/r1/01", r"'benign/r1/01' is not benign/r1/<n>"),
            ("id", "benign/r1/-1", r"'benign/r1/-1' is not benign/r1/<n>"),
            ("id", "benign/r1/+1", r"'benign/r1/\+1' is not benign/r1/<n>"),
            ("id", "benign/r1/ 1", r"'benign/r1/ 1' is not benign/r1/<n>"),
            ("id", "benign/r1/", r"'benign/r1/' is not benign/r1/<n>"),
            ("id", "benign/r1/\u0661", r"is not benign/r1/<n>"),  # an Arabic-Indic one
            ("id", "benign/r2/0", r"'benign/r2/0' is not benign/r1/<n>"),
            ("round_tag", "r9", r"signature id 'benign/r1/0' is not benign/r9/<n>"),
            ("label", "famA", r"signature id 'benign/r1/0' is not famA/r1/<n>"),
            ("label", "", r"signature 'benign/r1/0' has an empty label"),
        ],
        ids=["free", "zero-padded", "negative", "plus", "space", "no-ordinal", "non-ascii-digit",
             "other-tag", "round-tag", "other-label", "empty-label"],
    )
    def test_id_not_as_saved_rejected(self, saved, key, bad, message):
        """The saver writes ``label/round_tag/n``; another id would re-sort the signatures."""
        path, doc, _ = saved
        assert doc["signatures"][0]["id"] == "benign/r1/0"
        doc["signatures"][0][key] = bad
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=message):
            load_database(path)

    def test_any_canonical_ordinal_loads(self, saved, tmp_path):
        path, doc, _ = saved
        doc["signatures"][0]["id"] = "benign/r1/10"
        _resign(path, doc)
        loaded = load_database(path)
        ids = [sig.signature_id for sig in loaded.signatures]
        assert ids == ["benign/r1/10", "famA/r2/0", "famB/r2/0"]
        save_database(loaded, tmp_path / "again.sigdb.json")
        assert load_database(tmp_path / "again.sigdb.json") == loaded

    def test_duplicate_signature_id_rejected(self, saved):
        path, doc, _ = saved
        doc["signatures"][1]["id"] = doc["signatures"][0]["id"]
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"unique"):
            load_database(path)

    @pytest.mark.parametrize(
        "where, bad, name",
        [
            (("signatures", 0, "label"), None, "label"),
            (("signatures", 0, "member_count"), 5.7, "member_count"),
            (("signatures", 0, "member_count"), "3", "member_count"),
            (("signatures", 0, "member_count"), True, "member_count"),
            (("signatures", 0, "id"), 7, "id"),
            (("signatures", 0, "round_tag"), ["x"], "round_tag"),
            (("vocabulary", "opcodes", 0), 5, "opcode"),
            (("vocabulary", "opcodes"), "ABCDEF", "opcodes"),  # six one-letter opcodes
            (("vocabulary", "retain_fraction"), "0.9", "retain_fraction"),
            (("vocabulary", "retain_fraction"), True, "retain_fraction"),
            (("vocabulary", "retained_bigrams"), {}, "retained_bigrams"),
            (("signatures",), {}, "signatures"),  # an empty object would load as no signatures
            (("metadata",), [], "metadata"),
            (("metadata",), [["seed", 7]], "metadata"),
        ],
    )
    def test_mistyped_field_rejected(self, saved, where, bad, name):
        path, doc, _ = saved
        *steps, key = where
        target = doc
        for step in steps:
            target = target[step]
        target[key] = bad
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=rf"{name} must be"):
            load_database(path)

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_mistyped_version_rejected(self, tmp_path, bad):
        # both compare equal to 1, so without the type check they load and re-save as other bytes
        doc = json.loads((DATA / "saved_v1.sigdb.json").read_text())
        doc["version"] = bad
        path = tmp_path / "v.sigdb.json"
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"v\.sigdb\.json: version must be int"):
            load_database(path)

    def test_string_weight_rejected(self, saved):
        path, doc, _ = saved
        rows, row_key, col_key = self._first_cell(doc)
        rows[row_key][col_key] = repr(rows[row_key][col_key])  # parses back to the same float
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"weights must be float, got '"):
            load_database(path)

    def test_boolean_bigram_index_rejected(self, saved):
        path, doc, _ = saved
        pairs = doc["vocabulary"]["retained_bigrams"]
        # True and False index opcodes 1 and 0, so the vocabulary itself is unchanged
        row, pos = next(
            (row, pos) for row, pair in enumerate(pairs) for pos, i in enumerate(pair) if i in (0, 1)
        )
        pairs[row][pos] = bool(pairs[row][pos])
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"bigram indices must be int, got (True|False)"):
            load_database(path)

    def test_duplicate_retained_bigram_rejected(self, saved):
        path, doc, _ = saved
        pairs = doc["vocabulary"]["retained_bigrams"]
        pairs.append(list(pairs[0]))
        _resign(path, doc)
        with pytest.raises(DatabaseFormatError, match=r"retained bigram is listed twice"):
            load_database(path)


class TestAtomicSave:
    def test_bytes_unchanged_and_no_temp_left(self, tmp_path):
        db = build_database(toy_corpus(), retain_fraction=0.9)
        path = tmp_path / "a.sigdb.json"
        save_database(db, path)
        first = path.read_bytes()
        save_database(db, path)  # overwrite an existing file
        assert path.read_bytes() == first
        assert json.loads(first)["version"] == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.sigdb.json"]

    def test_failed_replace_keeps_previous_database(self, tmp_path, monkeypatch):
        old = build_database(toy_corpus(), retain_fraction=1.0)
        path = tmp_path / "b.sigdb.json"
        save_database(old, path)
        before = path.read_bytes()

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        new = build_database(toy_corpus(), retain_fraction=0.9)
        with pytest.raises(OSError):
            save_database(new, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.sigdb.json"]


class TestLoadMetadata:
    """The loader accepts only the metadata that training writes, checked as training checks it."""

    @pytest.fixture
    def doc(self):
        return json.loads((DATA / "saved_v1.sigdb.json").read_text())

    def _load(self, tmp_path, doc):
        path = tmp_path / "m.sigdb.json"
        _resign(path, doc)
        return load_database(path)

    def test_saved_metadata_loads(self, doc, tmp_path):
        assert self._load(tmp_path, doc).metadata == doc["metadata"]

    def test_monolithic_database_loads(self, tmp_path):
        db = build_database(validity_corpus(), monolithic=True)
        save_database(db, tmp_path / "mono.sigdb.json")
        loaded = load_database(tmp_path / "mono.sigdb.json")
        assert loaded == db and loaded.metadata["signature_mode"] == "monolithic"

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("eps_schedule", [0, 0], r"eps values must lie in \(0, 1\], got 0$"),
            ("eps_schedule", ["0.1"], r"eps values must lie in \(0, 1\], got '0\.1'$"),
            ("eps_schedule", [0.1, 0.01], r"eps values must be strictly increasing"),
            ("eps_schedule", "0.1", r"eps_schedule must be list, got '0\.1'$"),
            ("min_pts", "0", r"min_pts must be an integer, got '0'$"),
            ("min_pts", 0, r"min_pts must be >= 1, got 0$"),
            ("seed", "x", r"seed must be an integer, got 'x'$"),
            ("seed", True, r"seed must be an integer, got True$"),
            ("retain_fraction", "0.9", r"retain_fraction must be in \(0, 1\], got '0\.9'$"),
            ("retain_fraction", 0.5, r"metadata retain_fraction 0\.5 differs from the "
                                     r"vocabulary's 0\.9$"),
            ("signature_mode", "nonsense", r"signature_mode must be one of \('clustered', "
                                           r"'monolithic'\), got 'nonsense'$"),
            ("signature_mode", "monolithic", r"signature_mode 'monolithic' needs every round tag "
                                             r"'monolithic', got \['r1', 'r2'\]$"),
        ],
    )
    def test_bad_value_rejected(self, doc, tmp_path, key, bad, message):
        doc["metadata"][key] = bad
        with pytest.raises(DatabaseFormatError, match=message):
            self._load(tmp_path, doc)

    @pytest.mark.parametrize(
        "mode, count, message",
        [
            ("clustered", 1, r"signature_mode 'clustered' allows no round tag 'monolithic'$"),
            ("monolithic", 2, r"signature_mode 'monolithic' allows one signature per class$"),
        ],
    )
    def test_monolithic_tags_need_monolithic_mode(self, doc, tmp_path, mode, count, message):
        doc = monolithic_document(doc)
        assert self._load(tmp_path, doc).metadata["signature_mode"] == "monolithic"
        doc["metadata"]["signature_mode"] = mode
        first = doc["signatures"][0]
        for n in range(1, count):
            doc["signatures"].append(dict(first, id=f"{first['label']}/monolithic/{n}"))
        with pytest.raises(DatabaseFormatError, match=message):
            self._load(tmp_path, doc)

    def test_extra_key_rejected(self, doc, tmp_path):
        doc["metadata"]["note"] = "hand-edited"
        with pytest.raises(DatabaseFormatError, match=r"metadata keys must be \[.*\], got \[.*'note'"):
            self._load(tmp_path, doc)

    def test_missing_key_rejected(self, doc, tmp_path):
        del doc["metadata"]["seed"]
        with pytest.raises(DatabaseFormatError, match=r"metadata keys must be \["):
            self._load(tmp_path, doc)
