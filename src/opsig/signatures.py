"""Cluster-level opcode-graph signatures and the persisted signature database.

A signature is the graph of one group of samples' merged bigram counts, as if
they were a single sample: ``build_database``, the one way to make them (with
``train_database``, its form for an already coded corpus), sums the members'
retained-count rows and row-normalises the sum. The database
bundles all per-class signatures with the shared vocabulary and is stored as
a single versioned, checksummed JSON document with deterministic byte layout.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clusterer import (
    DEFAULT_EPS_SCHEDULE,
    DEFAULT_MIN_PTS,
    compute_distance_matrix,
    multi_round_cluster,
)
from .errors import (
    ChecksumMismatchError,
    DatabaseFormatError,
    EmptyCorpusError,
    UnsupportedVersionError,
)
from .ingest import OpcodeSequence
from .opgraph import (
    DEFAULT_RETAIN_FRACTION,
    CodedCorpus,
    OpcodeGraph,
    OpcodeVocabulary,
    code_corpus,
    normalized_graph,
)

FORMAT_VERSION = 1
DB_SUFFIX = ".sigdb.json"
DEFAULT_SEED = 7
MONOLITHIC_TAG = "monolithic"


@dataclass(frozen=True, eq=False)
class Signature:
    """One cluster-level opcode graph with its provenance."""

    signature_id: str
    class_label: str
    graph: OpcodeGraph
    member_count: int
    round_tag: str

    def __post_init__(self) -> None:
        if self.member_count < 1:
            raise ValueError("member_count must be >= 1")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.signature_id == other.signature_id
            and self.class_label == other.class_label
            and self.member_count == other.member_count
            and self.round_tag == other.round_tag
            and self.graph.vocab == other.graph.vocab
            and np.array_equal(self.graph.vector, other.graph.vector)
        )


@dataclass(frozen=True, eq=False)
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
            if not (sig.graph.vocab is self.vocabulary or sig.graph.vocab == self.vocabulary):
                raise ValueError(
                    f"signature {sig.signature_id!r} uses a different vocabulary"
                )

    @cached_property
    def vectors(self) -> np.ndarray:
        """Read-only stack of every signature's graph vector, in signature order."""
        stack = np.stack([sig.graph.vector for sig in self.signatures])
        stack.setflags(write=False)
        return stack

    @property
    def class_labels(self) -> tuple[str, ...]:
        return tuple(sorted({s.class_label for s in self.signatures}))

    def by_class(self) -> dict[str, list[Signature]]:
        grouped: dict[str, list[Signature]] = {}
        for sig in self.signatures:
            grouped.setdefault(sig.class_label, []).append(sig)
        return grouped

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureDatabase):
            return NotImplemented
        return (
            self.vocabulary == other.vocabulary
            and self.metadata == other.metadata
            and self.signatures == other.signatures
        )


# build_database's two helpers, not exported; bench/spans.py times them under these names.
def build_signature(
    rows: np.ndarray, vocab: OpcodeVocabulary, label: str, round_tag: str, ordinal: int
) -> Signature:
    """The signature of a group whose members' retained counts are ``rows``."""
    graph = normalized_graph(rows.sum(axis=0), vocab)
    return Signature(f"{label}/{round_tag}/{ordinal}", label, graph, len(rows), round_tag)


def build_class_signatures(
    rows: np.ndarray,
    vocab: OpcodeVocabulary,
    label: str,
    eps_schedule: tuple[float, ...],
    min_pts: int,
) -> list[Signature]:
    """Cluster one class's samples, given as count rows, and build a signature per group.

    Singleton leftovers yield singleton signatures, so every sample of the
    class is covered by exactly one signature.
    """
    # a sample is named by its row position, so each group's member ids index ``rows``
    graphs = [(str(i), normalized_graph(row, vocab)) for i, row in enumerate(rows)]
    matrix = compute_distance_matrix(graphs)
    signatures = []
    ordinals: dict[str, int] = {}
    for group in multi_round_cluster(matrix, eps_schedule, min_pts, family=label).groups:
        ordinal = ordinals[group.round_tag] = ordinals.get(group.round_tag, -1) + 1
        members = [int(i) for i in group.member_ids]
        signatures.append(build_signature(rows[members], vocab, label, group.round_tag, ordinal))
    return signatures


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
    in the metadata.
    """
    if not samples:
        raise EmptyCorpusError("cannot train on an empty corpus")
    ordered = sorted(samples, key=lambda s: s.sample_id)
    by_label: dict[str, list[int]] = {}
    for i, sample in enumerate(ordered):
        if sample.label is None:
            raise ValueError(f"training sample {sample.sample_id!r} has no class label")
        by_label.setdefault(sample.label, []).append(i)
    coded = code_corpus(ordered)
    vocab, slots = coded.vocabulary(range(len(ordered)), retain_fraction)
    return train_database(coded, by_label, vocab, slots, eps_schedule, min_pts, seed, monolithic)


def train_database(
    coded: CodedCorpus,
    by_label: Mapping[str, Sequence[int]],
    vocab: OpcodeVocabulary,
    slots: np.ndarray,
    eps_schedule: Iterable[float],
    min_pts: int,
    seed: int,
    monolithic: bool,
) -> SignatureDatabase:
    """``build_database`` over coded samples, with ``coded.vocabulary``'s vocabulary and slots.

    ``by_label`` gives each class's samples as positions in ``coded``, in
    ``sample_id`` order.
    """
    eps_values = tuple(float(e) for e in eps_schedule)
    signatures: list[Signature] = []
    for label in sorted(by_label):
        # one class's count rows at a time: the whole corpus's would raise peak memory
        rows = coded.count_rows(by_label[label], slots)[0]
        if monolithic:
            signatures.append(build_signature(rows, vocab, label, MONOLITHIC_TAG, 0))
        else:
            signatures += build_class_signatures(rows, vocab, label, eps_values, min_pts)
    metadata: dict[str, object] = {
        "retain_fraction": float(vocab.retain_fraction),
        "eps_schedule": [float(e) for e in eps_values],
        "min_pts": int(min_pts),
        "seed": int(seed),
        "signature_mode": MONOLITHIC_TAG if monolithic else "clustered",
    }
    return SignatureDatabase(vocab, tuple(signatures), metadata)


def _database_payload(db: SignatureDatabase) -> dict[str, object]:
    vocab = db.vocabulary
    cells = np.stack([vocab.cell_rows, vocab.cell_cols], axis=1).tolist()
    keys = [str(i) for i in range(vocab.size)]
    entries = []
    for sig in db.signatures:
        rows: dict[str, dict[str, float]] = {}
        vector = sig.graph.vector
        nonzero = np.flatnonzero(vector)
        for slot, weight in zip(nonzero.tolist(), vector[nonzero].tolist()):
            r, c = cells[slot]
            rows.setdefault(keys[r], {})[keys[c]] = weight
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


def _canonical_text(payload: dict[str, object]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def save_database(db: SignatureDatabase, path: str | Path) -> None:
    """Write the database as deterministic, checksummed JSON.

    The document goes to a temporary file beside ``path`` that then replaces
    it, so a failed or interrupted save leaves any previous database intact.
    """
    payload = _database_payload(db)
    checksum = hashlib.sha256(_canonical_text(payload).encode("utf-8")).hexdigest()
    document = dict(payload, checksum=checksum)
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        temp.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _signature_vectors(entries: Sequence[dict], vocab: OpcodeVocabulary) -> np.ndarray:
    """Decode the signatures' sparse row maps into their graph vectors, one row each.

    Row and column keys must be spelled as the saver writes them, ``"0"`` to
    ``"V-1"``, so each key names one index and no cell can be listed twice.
    The cells of all signatures are then checked and placed in one vectorized
    step: each listed cell must be a retained bigram with a weight in (0, 1],
    and every row of every signature must sum to 0 or 1.
    """
    size, flat_cells = vocab.size, vocab.flat_cells
    lookup = {str(i): i for i in range(size)}.__getitem__
    row_maps = [entry["rows"] for entry in entries]
    rows = list(chain.from_iterable(map(dict.values, row_maps)))
    cells_per_row = list(map(len, rows))
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
    flat = np.repeat(row_ids, cells_per_row) * size + cols
    slots = np.searchsorted(flat_cells, flat)
    if not np.array_equal(flat_cells[np.minimum(slots, len(flat_cells) - 1)], flat):
        raise DatabaseFormatError("weight on a bigram that is not retained")
    row_owner = np.repeat(np.arange(len(row_maps)), list(map(len, row_maps)))
    owner = np.repeat(row_owner, cells_per_row)
    vectors = np.zeros((len(row_maps), len(flat_cells)))
    vectors[owner, slots] = values
    row_sums = np.bincount(
        owner * size + vocab.cell_rows[slots], weights=values, minlength=vectors.shape[0] * size
    )
    if not np.all((row_sums == 0.0) | (np.abs(row_sums - 1.0) <= 1e-9)):
        raise DatabaseFormatError("a row's weights do not sum to 0 or 1")
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


def load_database(path: str | Path) -> SignatureDatabase:
    """Load a database file, verifying version, checksum and validity."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DatabaseFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DatabaseFormatError(f"{path}: top-level document must be an object")
    if "version" not in data:
        raise DatabaseFormatError(f"{path}: missing version field")
    if data["version"] != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"{path}: unsupported database version {data['version']!r}"
        )
    checksum = data.get("checksum")
    if not isinstance(checksum, str):
        raise DatabaseFormatError(f"{path}: missing checksum field")
    payload = {key: value for key, value in data.items() if key != "checksum"}
    actual = hashlib.sha256(_canonical_text(payload).encode("utf-8")).hexdigest()
    if actual != checksum:
        raise ChecksumMismatchError(f"{path}: checksum mismatch")
    try:
        vocab_doc = data["vocabulary"]
        opcodes = tuple(
            _typed(op, (str,), "opcode") for op in _typed(vocab_doc["opcodes"], (list,), "opcodes")
        )
        if len(set(opcodes)) != len(opcodes):
            raise DatabaseFormatError("duplicate opcodes in the vocabulary")
        pairs = vocab_doc["retained_bigrams"]
        indices = _all_typed(list(chain.from_iterable(pairs)), int, "bigram indices")
        retained = frozenset((opcodes[i], opcodes[j]) for i, j in pairs)
        if indices and (min(indices) < 0 or max(indices) >= len(opcodes)):
            raise DatabaseFormatError(f"bigram index outside [0, {len(opcodes)})")
        if len(retained) != len(pairs):
            raise DatabaseFormatError("a retained bigram is listed twice")
        retain_fraction = _typed(vocab_doc["retain_fraction"], (int, float), "retain_fraction")
        vocab = OpcodeVocabulary(opcodes, retained, float(retain_fraction))
        entries = data["signatures"]
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
        metadata = _typed(data["metadata"], (dict,), "metadata")
        return SignatureDatabase(vocab, tuple(signatures), metadata)
    except DatabaseFormatError as exc:
        raise DatabaseFormatError(f"{path}: invalid database document: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
        raise DatabaseFormatError(f"{path}: malformed database document: {exc}") from exc
