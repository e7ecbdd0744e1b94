import hashlib
import json
import os
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
from opsig.ingest import OpcodeSequence
from opsig.opgraph import build_graph, count_bigrams, merge_counts
from opsig.signatures import (
    SignatureDatabase,
    build_database,
    build_signature,
    load_database,
    save_database,
)
from opsig.synthcorpus import (
    default_alphabet,
    generate_corpus,
    make_family_model,
    sample_sequence,
)

DATA = Path(__file__).parent / "data"


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

    def test_unlabelled_sample_rejected(self):
        corpus = toy_corpus() + [OpcodeSequence("x0", ("MOV", "PUSH"))]
        with pytest.raises(ValueError, match="'x0' has no class label"):
            build_database(corpus)


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

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_database(tmp_path / "gone.sigdb.json")

    def test_default_database_bytes_pinned(self, tmp_path):
        path = tmp_path / "default.sigdb.json"
        save_database(build_database(generate_corpus()[0]), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "edd0b9f7b072ec52eb012ae8dd90b983fa4247d23f310661c2c53a189f3b3c91"

    def test_earlier_release_database_loads_equal(self, tmp_path):
        # written by commit 52ad75e, whose loader parsed index keys as numbers
        saved = DATA / "saved_v1.sigdb.json"
        loaded = load_database(saved)
        assert loaded == build_database(validity_corpus(), retain_fraction=0.9)
        save_database(loaded, tmp_path / "again.sigdb.json")
        assert (tmp_path / "again.sigdb.json").read_bytes() == saved.read_bytes()


class TestDatabaseValidation:
    def test_duplicate_ids_rejected(self, seq1):
        db = build_database([seq1], retain_fraction=1.0)
        (sig,) = db.signatures
        with pytest.raises(ValueError):
            SignatureDatabase(db.vocabulary, (sig, sig), {})


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
