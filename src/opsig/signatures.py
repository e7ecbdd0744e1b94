"""Cluster-level opcode-graph signatures and the persisted signature database.

A signature is the graph of one group of samples' merged bigram counts, as if
they were a single sample: ``build_database``, the one way to make them (with
``train_database``, its form for an already coded corpus), sums the members'
retained-count rows and row-normalises the sum. One class builder serves
both signature modes, which differ only in how a class's samples are grouped:
the monolithic baseline makes the class one group, else its clusters do. The
database bundles all per-class signatures with the shared vocabulary and is stored as
a single versioned, checksummed JSON document with deterministic byte layout,
which the saver writes as one text, in one pass over the signatures, and signs
as the loader checks it: with its layout whitespace deleted.
A file in that layout loads with one JSON decode: its checksum is checked over
the very bytes that are decoded, so the payload is never re-encoded.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import secrets
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .clusterer import (
    DEFAULT_EPS_SCHEDULE, DEFAULT_MIN_PTS, class_matrix, multi_round_cluster, validate_eps_schedule
)
from .errors import (
    ChecksumMismatchError,
    DatabaseFormatError,
    EmptyCorpusError,
    UnsupportedVersionError,
    check_integer,
)
from .ingest import OpcodeSequence
from .opgraph import (
    DEFAULT_RETAIN_FRACTION,
    CodedCorpus,
    OpcodeGraph,
    OpcodeVocabulary,
    check_retain_fraction,
    code_corpus,
    graph_layout,
    normalized_graphs,
    same_vocabulary,
)

FORMAT_VERSION = 1
DEFAULT_SEED = 7
MONOLITHIC_TAG = "monolithic"


@dataclass(frozen=True)
class Signature:
    """One cluster-level opcode graph with its provenance."""

    signature_id: str
    class_label: str
    graph: OpcodeGraph
    member_count: int
    round_tag: str

    def __post_init__(self) -> None:
        member_count = check_integer("member_count", self.member_count, 1)
        object.__setattr__(self, "member_count", member_count)


@dataclass(frozen=True)
class SignatureDatabase:
    """All per-class signatures plus the shared vocabulary and run metadata."""

    vocabulary: OpcodeVocabulary
    signatures: tuple[Signature, ...]
    metadata: dict[str, object]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "signatures", tuple(sorted(self.signatures, key=lambda s: s.signature_id))
        )
        ids = [s.signature_id for s in self.signatures]
        if len(ids) != len(set(ids)):
            raise ValueError("signature ids must be unique")
        for sig in self.signatures:
            if not same_vocabulary(sig.graph.vocab, self.vocabulary):
                raise ValueError(f"signature {sig.signature_id!r} uses a different vocabulary")

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray]:
        """Every signature's graph vector as ``scaled_l1`` reads them, in signature order."""
        return graph_layout([sig.graph.vector for sig in self.signatures])

    @property
    def class_labels(self) -> tuple[str, ...]:
        return tuple(sorted({s.class_label for s in self.signatures}))

    def by_class(self) -> dict[str, list[Signature]]:
        grouped: dict[str, list[Signature]] = {}
        for sig in self.signatures:
            grouped.setdefault(sig.class_label, []).append(sig)
        return grouped


def class_rows(
    coded: CodedCorpus, positions: Sequence[int], retain_fraction: float
) -> tuple[OpcodeVocabulary, Iterator[tuple[str, np.ndarray]]]:
    """The vocabulary of the samples at ``positions`` and each class's count rows over it.

    Classes come in sorted label order, and each class's rows in ``sample_id`` order.
    """
    ids, labels = coded.sample_ids, coded.labels
    by_label: dict[str, list[int]] = {}
    for i in sorted(positions, key=ids.__getitem__):
        if not labels[i]:  # None or "", which no saved database may hold
            raise ValueError(f"training sample {ids[i]!r} has no class label")
        by_label.setdefault(labels[i], []).append(i)
    vocab = coded.vocabulary(positions, retain_fraction)
    # one class's count rows at a time: the whole corpus's would raise peak memory
    rows = ((label, coded.count_rows(by_label[label], vocab)[0]) for label in sorted(by_label))
    return vocab, rows


# build_database's two helpers, not exported; bench/spans.py times them under these names.
def build_signature(
    rows: np.ndarray, vocab: OpcodeVocabulary, label: str, round_tag: str, ordinal: int
) -> Signature:
    """The signature of a group whose members' retained counts are ``rows``."""
    (graph,) = normalized_graphs([rows.sum(axis=0)], vocab)
    return Signature(f"{label}/{round_tag}/{ordinal}", label, graph, len(rows), round_tag)


def build_class_signatures(
    rows: np.ndarray, vocab: OpcodeVocabulary, label: str, config: EvalConfig
) -> list[Signature]:
    """One class's signatures, from its samples' count rows and a checked ``config``.

    A monolithic ``config`` makes the whole class one group, tagged
    ``monolithic``; a clustered one takes ``multi_round_cluster``'s groups,
    whose singleton leftovers yield singleton signatures. Either way every
    sample of the class is covered by exactly one signature, except that a
    group with no retained bigram yields none: its signature would have no weight.
    """
    if config.monolithic:
        groups = [(MONOLITHIC_TAG, slice(None))]
    else:
        found = multi_round_cluster(
            class_matrix(rows, vocab), config.eps_schedule, config.min_pts, family=label
        )
        # a sample is named by its row position, so each group's member ids index ``rows``
        groups = [(group.round_tag, [int(i) for i in group.member_ids]) for group in found.groups]
    signatures = []
    ordinals: dict[str, int] = {}
    for round_tag, index in groups:
        members = rows[index]
        if not members.any():
            continue
        ordinal = ordinals[round_tag] = ordinals.get(round_tag, -1) + 1
        signatures.append(build_signature(members, vocab, label, round_tag, ordinal))
    return signatures


@dataclass(frozen=True)
class EvalConfig:
    """The training settings of a database, and of every fold of an experiment."""

    retain_fraction: float = DEFAULT_RETAIN_FRACTION
    eps_schedule: tuple[float, ...] = DEFAULT_EPS_SCHEDULE
    min_pts: int = DEFAULT_MIN_PTS
    monolithic: bool = False

    def checked(self, seed: int) -> EvalConfig:
        """This config with every setting checked and normalised, ``seed`` included.

        The schedule is read once, into a tuple of floats, then ``min_pts``,
        ``seed``, ``retain_fraction`` and ``monolithic`` (a ``bool`` or a numpy
        bool, kept as a ``bool``) are checked; a bad one is a ``ValueError``.
        """
        eps_schedule = validate_eps_schedule(self.eps_schedule)
        min_pts = check_integer("min_pts", self.min_pts, 1)
        check_integer("seed", seed, 0)
        retain_fraction = check_retain_fraction(self.retain_fraction)
        if not isinstance(self.monolithic, (bool, np.bool_)):
            raise ValueError(f"monolithic must be a bool, got {self.monolithic!r}")
        return EvalConfig(retain_fraction, eps_schedule, min_pts, bool(self.monolithic))


def build_database(
    samples: Sequence[OpcodeSequence],
    retain_fraction: float = DEFAULT_RETAIN_FRACTION,
    eps_schedule: Iterable[float] = DEFAULT_EPS_SCHEDULE,
    min_pts: int = DEFAULT_MIN_PTS,
    seed: int = DEFAULT_SEED,
    monolithic: bool = False,
) -> SignatureDatabase:
    """Train a database: shared vocabulary, then per-class signatures.

    The vocabulary is filtered once over the merged counts of every class
    (benign included); classes are then processed in sorted label order.
    Each class's samples are clustered in ``sample_id`` order, so the result
    does not depend on the order of ``samples``. ``seed`` is only recorded
    in the metadata. In either mode, a setting that ``EvalConfig.checked``
    rejects is a ``ValueError``, raised before the corpus is coded.
    """
    if not samples:
        raise EmptyCorpusError("cannot train on an empty corpus")
    config = EvalConfig(retain_fraction, eps_schedule, min_pts, monolithic).checked(seed)
    return train_database(code_corpus(samples), range(len(samples)), config, seed)


def train_database(
    coded: CodedCorpus, positions: Sequence[int], config: EvalConfig, seed: int
) -> SignatureDatabase:
    """``build_database`` on the coded samples at ``positions``, with ``config`` checked."""
    vocab, classes = class_rows(coded, positions, config.retain_fraction)
    signatures = [
        sig for label, rows in classes for sig in build_class_signatures(rows, vocab, label, config)
    ]
    metadata: dict[str, object] = {
        "retain_fraction": vocab.retain_fraction,
        "eps_schedule": list(config.eps_schedule),
        "min_pts": config.min_pts,
        "seed": int(seed),
        "signature_mode": MONOLITHIC_TAG if config.monolithic else "clustered",
    }
    return SignatureDatabase(vocab, tuple(signatures), metadata)


def _canonical_text(payload: dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _arrays(items: list[str], level: int) -> str:
    """A JSON array of encoded items, as ``indent=2`` writes it at depth ``level``."""
    if not items:
        return "[]"
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    return f"[{inner}{(',' + inner).join(items)}{outer}]"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's names for them
_LAYOUT = b" \t\n\r"  # JSON's layout whitespace, which the checksum does not cover


def _row_maps(db: SignatureDatabase, keys: np.ndarray) -> list[str]:
    """Each signature's sparse row map as JSON text, indented as in the document.

    Cells come in JSON key order, row key then column key, compared as
    strings (so ``"10"`` sorts before ``"2"``), and each distinct weight is
    formatted once. A cell's text is its weight preceded by a head: a comma
    and its column key, and at the first cell of a row also the row's key,
    after the previous row's close. ``keys`` holds each index's quoted key.
    """
    vocab, count = db.vocabulary, len(db.signatures)
    rank = np.empty(vocab.size, dtype=np.intp)
    rank[sorted(range(vocab.size), key=str)] = np.arange(vocab.size)
    order = np.argsort(rank[vocab.cell_rows] * vocab.size + rank[vocab.cell_cols])
    vectors = np.zeros((count, len(order)))
    for i, sig in enumerate(db.signatures):
        vectors[i] = sig.graph.vector[order]
    owner, position = np.nonzero(vectors)
    distinct, inverse = np.unique(vectors[owner, position], return_inverse=True)
    texts = list(map(float.__repr__, distinct.tolist()))  # as json.dumps writes each float
    if not np.isfinite(distinct).all():
        texts = [_NON_FINITE.get(text, text) for text in texts]
    weights = np.array(texts, dtype=object)[inverse].tolist()
    row, col = vocab.cell_rows[order][position], vocab.cell_cols[order][position]
    first = np.diff(owner, prepend=-1) != 0  # a signature's first cell
    opens = first | (np.diff(row, prepend=-1) != 0)  # a row's first cell
    later = opens & ~first
    bounds = np.searchsorted(owner, np.arange(count + 1)).tolist()
    heads = (",\n          " + keys + ": ")[col]
    heads[opens] = "\n        " + keys[row[opens]] + ": {\n          " + keys[col[opens]] + ": "
    heads[later] = "\n        }," + heads[later]
    heads = heads.tolist()
    return [
        "{" + "".join(chain.from_iterable(zip(heads[a:b], weights[a:b]))) + "\n        }\n      }"
        if a < b else "{}"
        for a, b in zip(bounds, bounds[1:])
    ]


def _document(db: SignatureDatabase) -> str:
    """The text ``save_database`` writes, built straight from ``db``.

    It is ``json.dumps(dict(payload, checksum=h), sort_keys=True, indent=2)``
    plus a newline, where ``payload`` is the database as a JSON object and
    ``h`` the SHA-256 of ``_canonical_text(payload)``. No payload is built:
    json's indented encoder is pure Python. Only ``metadata``, which may hold
    any JSON value, goes through ``json.dumps``; its text is nested one level
    deeper by indenting every line break, exact because JSON text holds no
    raw newline. The canonical text is the document after its checksum line,
    with its ``_LAYOUT`` bytes deleted as the loader deletes them, unless a
    string holds a space (JSON escapes every other whitespace character).
    Only then is the document decoded and re-encoded, with ``db.metadata``
    put back: decoded, its keys would be strings, which may sort otherwise.
    """
    vocab = db.vocabulary
    numbers = np.array([str(i) for i in range(vocab.size)], dtype=object)
    entries = [
        '{\n      "id": %s,\n      "label": %s,\n      "member_count": %d,\n'
        '      "round_tag": %s,\n      "rows": %s\n    }'
        % (_quote(sig.signature_id), _quote(sig.class_label), sig.member_count,
           _quote(sig.round_tag), rows)
        for sig, rows in zip(db.signatures, _row_maps(db, '"' + numbers + '"'))
    ]
    firsts, seconds = numbers[vocab.cell_rows], numbers[vocab.cell_cols]
    bigrams = ("[\n        " + firsts + ",\n        " + seconds + "\n      ]").tolist()
    body = (  # the document after its checksum line
        '  "metadata": %s,\n  "signatures": %s,\n  "version": %d,\n'
        '  "vocabulary": {\n    "opcodes": %s,\n    "retain_fraction": %s,\n'
        '    "retained_bigrams": %s\n  }\n}\n'
        % (json.dumps(db.metadata, sort_keys=True, indent=2).replace("\n", "\n  "),
           _arrays(entries, 1), FORMAT_VERSION, _arrays(list(map(_quote, vocab.opcodes)), 2),
           json.dumps(vocab.retain_fraction), _arrays(bigrams, 2))
    )
    strings = chain(
        [json.dumps(db.metadata, separators=(",", ":"))], vocab.opcodes,
        *((sig.signature_id, sig.class_label, sig.round_tag) for sig in db.signatures),
    )
    if any(" " in text for text in strings):
        signed = _canonical_text(dict(json.loads("{" + body), metadata=db.metadata)).encode()
    else:
        signed = b"{" + body.encode().translate(None, _LAYOUT)
    return '{\n  "checksum": "%s",\n' % hashlib.sha256(signed).hexdigest() + body


def save_database(db: SignatureDatabase, path: str | Path) -> None:
    """Write the database as deterministic, checksummed JSON.

    The document goes to a temporary file beside ``path`` that then replaces
    it, so a failed or interrupted save leaves any previous database intact.
    """
    text = _document(db)
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _signature_vectors(entries: Sequence[dict], vocab: OpcodeVocabulary) -> np.ndarray:
    """Decode the signatures' sparse row maps into their graph vectors, one row each.

    Row and column keys must be spelled as the saver writes them, ``"0"`` to
    ``"V-1"``, so each key names one index and no cell can be listed twice.
    No row map may be empty. The cells of all signatures are then checked and
    placed in one vectorized step: each listed cell must be a retained bigram
    with a weight in (0, 1], every row of every signature must sum to 0 or 1,
    and every signature must carry some weight.
    """
    size = vocab.size
    lookup = {str(i): i for i in range(size)}.__getitem__
    row_maps = [entry["rows"] for entry in entries]
    rows = list(chain.from_iterable(map(dict.values, row_maps)))
    cells_per_row = list(map(len, rows))
    row_owner = np.repeat(np.arange(len(row_maps)), list(map(len, row_maps)))
    if 0 in cells_per_row:  # the saver writes no empty row, so it would re-save differently
        empty = entries[row_owner[cells_per_row.index(0)]]["id"]
        raise DatabaseFormatError(f"signature {empty!r} has an empty row map")
    try:
        row_ids = np.array(list(map(lookup, chain.from_iterable(row_maps))), dtype=np.int64)
        cols = np.array(list(map(lookup, chain.from_iterable(rows))), dtype=np.int64)
    except KeyError as exc:
        raise DatabaseFormatError(
            f"cell index keys must be single integers in [0, {size}), got {exc.args[0]!r}"
        ) from None
    weights = _all_typed(list(chain.from_iterable(map(dict.values, rows))), float, "weights")
    values = np.array(weights, dtype=float)
    if not np.all((values > 0.0) & (values <= 1.0)):
        raise DatabaseFormatError("weights must lie in (0, 1]")
    cell_rows = np.repeat(row_ids, cells_per_row)
    slot_ids = vocab.slot_of(cell_rows, cols)
    if np.any(slot_ids < 0):
        raise DatabaseFormatError("weight on a bigram that is not retained")
    owner = np.repeat(row_owner, cells_per_row)
    vectors = np.zeros((len(row_maps), len(vocab.flat_cells)))
    vectors[owner, slot_ids] = values
    row_sums = np.bincount(owner * size + cell_rows, weights=values, minlength=len(row_maps) * size)
    if not np.all((row_sums == 0.0) | (np.abs(row_sums - 1.0) <= 1e-9)):
        raise DatabaseFormatError("a row's weights do not sum to 0 or 1")
    weightless = np.flatnonzero(~vectors.any(axis=1))
    if len(weightless):  # it would sit nearest to every short sample
        raise DatabaseFormatError(f"signature {entries[weightless[0]]['id']!r} has no weight")
    return vectors


def _typed(value: object, types: tuple[type, ...], name: str):
    """``value`` if its type is exactly one of ``types`` (so a ``bool`` is no ``int``)."""
    if type(value) not in types:
        kinds = " or ".join(t.__name__ for t in types)
        raise DatabaseFormatError(f"{name} must be {kinds}, got {value!r}")
    return value


def _all_typed(values: list, kind: type, name: str) -> list:
    """``values`` if each one is ``_typed`` as ``kind``; one set of their types is checked first."""
    if set(map(type, values)) - {kind}:
        for value in values:
            _typed(value, (kind,), name)
    return values


def _known_keys(obj: dict, keys: frozenset[str], name: str) -> dict:
    """``obj`` if it has no key outside ``keys``; a missing key fails where it is read."""
    if not obj.keys() <= keys:
        raise DatabaseFormatError(f"{name} has unknown keys {sorted(obj.keys() - keys)}")
    return obj


_PAYLOAD_KEYS = frozenset({"version", "metadata", "vocabulary", "signatures"})
_VOCABULARY_KEYS = frozenset({"opcodes", "retain_fraction", "retained_bigrams"})
_ENTRY_KEYS = frozenset({"id", "label", "member_count", "round_tag", "rows"})
_METADATA_KEYS = frozenset({"retain_fraction", "eps_schedule", "min_pts", "seed", "signature_mode"})
_SIGNATURE_MODES = ("clustered", MONOLITHIC_TAG)
_ORDINAL = re.compile(r"0|[1-9][0-9]*")


def _check_metadata(
    metadata: dict, vocab: OpcodeVocabulary, signatures: Sequence[Signature]
) -> dict:
    """``metadata`` if it holds what ``train_database`` writes for ``signatures`` over ``vocab``.

    Its settings must pass ``EvalConfig.checked``, whose ``ValueError`` the
    loader reports. A ``monolithic`` database holds at most one signature per
    class, each tagged ``monolithic``; a ``clustered`` one holds no such tag.
    """
    if metadata.keys() != _METADATA_KEYS:
        raise DatabaseFormatError(
            f"metadata keys must be {sorted(_METADATA_KEYS)}, got {sorted(metadata)}"
        )
    EvalConfig(
        metadata["retain_fraction"], _typed(metadata["eps_schedule"], (list,), "eps_schedule"),
        metadata["min_pts"],
    ).checked(metadata["seed"])
    if metadata["retain_fraction"] != vocab.retain_fraction:
        raise DatabaseFormatError(
            f"metadata retain_fraction {metadata['retain_fraction']!r} differs from the "
            f"vocabulary's {vocab.retain_fraction!r}"
        )
    mode = metadata["signature_mode"]
    if mode not in _SIGNATURE_MODES:
        raise DatabaseFormatError(f"signature_mode must be one of {_SIGNATURE_MODES}, got {mode!r}")
    tags = {sig.round_tag for sig in signatures}
    if mode == MONOLITHIC_TAG:
        if tags - {MONOLITHIC_TAG}:
            raise DatabaseFormatError(
                f"signature_mode 'monolithic' needs every round tag {MONOLITHIC_TAG!r}, "
                f"got {sorted(tags)}"
            )
        if len({sig.class_label for sig in signatures}) != len(signatures):
            raise DatabaseFormatError("signature_mode 'monolithic' allows one signature per class")
    elif MONOLITHIC_TAG in tags:
        raise DatabaseFormatError(
            f"signature_mode 'clustered' allows no round tag {MONOLITHIC_TAG!r}"
        )
    return metadata


def load_database(path: str | Path) -> SignatureDatabase:
    """Load a database file, verifying version, checksum and validity.

    A file as ``save_database`` writes it is decoded once: with its ``_LAYOUT``
    bytes deleted it reads ``{"checksum":"<hex>",`` followed by the rest of
    the canonical text the checksum was taken over, so the checksum is
    checked over exactly the bytes that are then decoded, and whitespace
    counts as layout even inside a string. Any other file (a string holding
    a space, another layout or key order, an edit) is decoded whole and its
    payload re-encoded canonically to check the checksum. Either way the
    version is checked right after decoding, then the document's validity.
    """
    stored = Path(path).read_bytes()
    compact = stored.translate(None, _LAYOUT)
    signed = b"{" + compact[79:]  # 79 = len('{"checksum":"<64 hex digits>",')
    digest = hashlib.sha256(signed).hexdigest().encode("ascii")
    verified = compact[:79] == b'{"checksum":"%s",' % digest
    try:
        data = json.loads((signed if verified else stored).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DatabaseFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # a JSON syntax error, or an integer past Python's digit limit
        raise DatabaseFormatError(f"{path}: cannot decode JSON: {exc}") from exc
    except RecursionError as exc:
        raise DatabaseFormatError(f"{path}: JSON nested too deeply to decode") from exc
    if not isinstance(data, dict):
        raise DatabaseFormatError(f"{path}: top-level document must be an object")
    if "version" not in data:
        raise DatabaseFormatError(f"{path}: missing version field")
    # a bool or a float would compare equal to 1 and then re-save as different bytes
    if _typed(data["version"], (int,), f"{path}: version") != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported database version {data['version']!r}"
        )
    payload = data  # the verified bytes hold the payload alone, with no checksum key
    if not verified:
        checksum = data.get("checksum")
        if not isinstance(checksum, str):
            raise DatabaseFormatError(f"{path}: missing checksum field")
        payload = {key: value for key, value in data.items() if key != "checksum"}
        actual = hashlib.sha256(_canonical_text(payload).encode("utf-8")).hexdigest()
        if actual != checksum:
            raise ChecksumMismatchError(f"{path}: checksum mismatch")
    try:
        _known_keys(payload, _PAYLOAD_KEYS, "the document")
        vocab_doc = _known_keys(data["vocabulary"], _VOCABULARY_KEYS, "vocabulary")
        opcodes = tuple(
            _typed(op, (str,), "opcode") for op in _typed(vocab_doc["opcodes"], (list,), "opcodes")
        )
        if len(set(opcodes)) != len(opcodes):
            raise DatabaseFormatError("duplicate opcodes in the vocabulary")
        pairs = _typed(vocab_doc["retained_bigrams"], (list,), "retained_bigrams")
        indices = _all_typed(list(chain.from_iterable(pairs)), int, "bigram indices")
        retained = frozenset((opcodes[i], opcodes[j]) for i, j in pairs)
        if indices and (min(indices) < 0 or max(indices) >= len(opcodes)):
            raise DatabaseFormatError(f"bigram index outside [0, {len(opcodes)})")
        if len(retained) != len(pairs):
            raise DatabaseFormatError("a retained bigram is listed twice")
        if sorted(pairs) != pairs:  # the saver lists them in row-major order
            raise DatabaseFormatError("retained bigrams are not in ascending row-major order")
        retain_fraction = _typed(vocab_doc["retain_fraction"], (int, float), "retain_fraction")
        vocab = OpcodeVocabulary(opcodes, retained, float(retain_fraction))
        entries = [
            _known_keys(entry, _ENTRY_KEYS, "a signature")
            for entry in _typed(data["signatures"], (list,), "signatures")
        ]
        signatures = [
            Signature(
                _typed(entry["id"], (str,), "id"),
                _typed(entry["label"], (str,), "label"),
                OpcodeGraph.from_vector(vocab, vector),
                _typed(entry["member_count"], (int,), "member_count"),
                _typed(entry["round_tag"], (str,), "round_tag"),
            )
            for entry, vector in zip(entries, _signature_vectors(entries, vocab))
        ]
        metadata = _check_metadata(_typed(data["metadata"], (dict,), "metadata"), vocab, signatures)
        db = SignatureDatabase(vocab, tuple(signatures), metadata)
        for sig in db.signatures:  # as the saver writes them, so they re-save in the same order
            prefix = f"{sig.class_label}/{sig.round_tag}/"
            if not sig.class_label:
                raise DatabaseFormatError(f"signature {sig.signature_id!r} has an empty label")
            if not (sig.signature_id.startswith(prefix)
                    and _ORDINAL.fullmatch(sig.signature_id, len(prefix))):
                raise DatabaseFormatError(f"signature id {sig.signature_id!r} is not {prefix}<n>")
        return db
    except DatabaseFormatError as exc:
        raise DatabaseFormatError(f"{path}: invalid database document: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise DatabaseFormatError(f"{path}: malformed database document: {exc}") from exc
