"""Bigram counting, vocabulary filtering, opcode graph construction and scoring.

An opcode graph over a shared vocabulary of V opcodes gives, for each cell
(i, j), the probability that opcode j follows opcode i in a sample. Only the
vocabulary's retained bigrams can carry weight, so a graph is stored as a
vector with one weight per retained bigram, in row-major cell order; the
V x V matrix is a derived view. The distance between two graphs is the total
absolute difference of their weights, scaled by 1 / (2V) so that scores live
on [0, 1]: each row is a point on the probability simplex (or all zero), so
one row pair contributes at most 2. Clustering, classification and the
similarity table all score graphs with the one kernel, ``scaled_l1``.

``count_bigrams`` counts one sample, as classification does; training codes
a whole corpus once with ``code_corpus`` and takes its vocabularies and count
rows from that coding.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpusError, EmptySampleError, VocabularyMismatchError
from .ingest import OpcodeSequence

Bigram = tuple[str, str]

DEFAULT_RETAIN_FRACTION = 0.9


@dataclass(frozen=True)
class BigramCounts:
    """Occurrence counts of ordered opcode pairs for one or more samples."""

    counts: dict[Bigram, int]
    total: int

    def __post_init__(self) -> None:
        if self.total != sum(self.counts.values()):
            raise ValueError("total does not match the sum of bigram counts")
        if any(count < 1 for count in self.counts.values()):
            raise ValueError("bigram counts must be >= 1")


def _opcodes(seq: OpcodeSequence) -> tuple[str, ...]:
    """``seq.opcodes``, which must not be empty."""
    if not seq.opcodes:
        raise EmptySampleError(f"sample {seq.sample_id!r} has no opcodes")
    return seq.opcodes


def count_bigrams(seq: OpcodeSequence) -> BigramCounts:
    """Count adjacent opcode pairs; a sequence of length L has L - 1 of them."""
    opcodes = _opcodes(seq)
    pairs = Counter(zip(opcodes, opcodes[1:]))
    return BigramCounts(dict(pairs), sum(pairs.values()))


def merge_counts(parts: Iterable[BigramCounts]) -> BigramCounts:
    """Key-wise sum of several bigram count maps."""
    merged: Counter[Bigram] = Counter()
    for part in parts:
        merged.update(part.counts)
    return BigramCounts(dict(merged), sum(merged.values()))


@dataclass(frozen=True)
class OpcodeVocabulary:
    """Filtered global opcode index shared by every graph in one run.

    ``retained_bigrams`` is the shortest prefix of bigrams, sorted by count
    descending (ties broken lexicographically), whose cumulative count covers
    ``retain_fraction`` of all bigram occurrences. ``opcodes`` are exactly the
    opcodes appearing in some retained bigram, in lexicographic order.
    """

    opcodes: tuple[str, ...]
    retained_bigrams: frozenset[Bigram]
    retain_fraction: float

    @property
    def size(self) -> int:
        return len(self.opcodes)

    @cached_property
    def index(self) -> dict[str, int]:
        return {op: i for i, op in enumerate(self.opcodes)}

    @cached_property
    def flat_cells(self) -> np.ndarray:
        """Flat index ``row * V + col`` of each retained bigram, ascending.

        A graph vector has one slot per entry, so slots follow row-major cell order.
        """
        count, position = len(self.retained_bigrams), self.index.__getitem__
        firsts, seconds = zip(*self.retained_bigrams) if count else ((), ())
        rows = np.fromiter(map(position, firsts), np.intp, count)
        flat = rows * self.size + np.fromiter(map(position, seconds), np.intp, count)
        flat.sort()
        return _read_only(flat)

    @cached_property
    def cell_rows(self) -> np.ndarray:
        """Row index of each graph-vector slot."""
        return _read_only(self.flat_cells // self.size)

    @cached_property
    def cell_cols(self) -> np.ndarray:
        """Column index of each graph-vector slot."""
        return _read_only(self.flat_cells % self.size)

    @cached_property
    def slots(self) -> dict[Bigram, int]:
        """Position of each retained bigram in a graph vector."""
        ops = self.opcodes
        cells = zip(self.cell_rows.tolist(), self.cell_cols.tolist())
        return {(ops[row], ops[col]): slot for slot, (row, col) in enumerate(cells)}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _rank_and_cut(
    bigrams: Sequence[Bigram], counts: np.ndarray, retain_fraction: float
) -> tuple[OpcodeVocabulary, np.ndarray]:
    """The vocabulary of the top bigrams covering ``retain_fraction`` of all occurrences.

    ``bigrams`` are in lexicographic order and ``counts`` holds their integer
    counts, zero allowed. Bigrams rank by count descending, ties in bigram
    order, and the shortest ranked prefix reaching the threshold is retained.
    Also returns the retained positions in ``bigrams``, ascending.
    """
    if not 0.0 < retain_fraction <= 1.0:
        raise ValueError(f"retain_fraction must be in (0, 1], got {retain_fraction}")
    total = int(counts.sum())
    if total <= 0:
        raise EmptyCorpusError("cannot build a vocabulary from zero bigrams")
    ranked = np.argsort(-counts, kind="stable")
    target = retain_fraction * total
    # Guard against float spill, e.g. 0.9 * 10 -> 9.000000000000002.
    threshold = math.ceil(target - 1e-9 * max(1.0, target))
    cut = int(np.searchsorted(np.cumsum(counts[ranked]), threshold)) + 1
    kept = np.sort(ranked[:cut])
    retained = [bigrams[i] for i in kept.tolist()]
    opcodes = sorted({op for pair in retained for op in pair})
    return OpcodeVocabulary(tuple(opcodes), frozenset(retained), retain_fraction), kept


def build_vocabulary(
    corpus_counts: BigramCounts, retain_fraction: float = DEFAULT_RETAIN_FRACTION
) -> OpcodeVocabulary:
    """Keep the top bigrams covering ``retain_fraction`` of all occurrences."""
    bigrams = sorted(corpus_counts.counts)
    counts = np.fromiter(map(corpus_counts.counts.__getitem__, bigrams), np.int64, len(bigrams))
    return _rank_and_cut(bigrams, counts, retain_fraction)[0]


@dataclass(frozen=True, eq=False)
class CodedCorpus:
    """Every sample's bigram counts, coded once as integers.

    ``bigrams`` lists the corpus's distinct bigrams in lexicographic order.
    Sample ``i`` has ``counts[j]`` occurrences of bigram ``bigrams[pairs[j]]``
    for each ``j`` in ``range(offsets[i], offsets[i + 1])``.
    """

    bigrams: list[Bigram]
    pairs: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray

    def _entries(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each entry of the samples at ``positions``, with the index of its sample there."""
        positions = np.asarray(positions, dtype=np.intp)
        lengths = np.diff(self.offsets)[positions]
        owners = np.repeat(np.arange(len(positions)), lengths)
        # gathered entry k lies k - (entries gathered before its sample) past that sample's start
        shifts = self.offsets[positions] - (np.cumsum(lengths) - lengths)
        return np.arange(len(owners)) + shifts[owners], owners

    def vocabulary(
        self, positions: Sequence[int], retain_fraction: float
    ) -> tuple[OpcodeVocabulary, np.ndarray]:
        """The vocabulary of the samples at ``positions``, as ``build_vocabulary`` filters it.

        Also returns each distinct bigram's slot in it, -1 where not retained.
        """
        entries, _ = self._entries(positions)
        totals = np.bincount(
            self.pairs[entries], weights=self.counts[entries], minlength=len(self.bigrams)
        )
        vocab, kept = _rank_and_cut(self.bigrams, totals.astype(np.int64), retain_fraction)
        slots = np.full(len(self.bigrams), -1, dtype=np.intp)
        slots[kept] = np.arange(len(kept))
        return vocab, slots

    def count_rows(
        self, positions: Sequence[int], slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``retained_counts`` of the samples at ``positions``, one row each.

        ``slots`` is a slot map from ``vocabulary``. Also returns each sample's
        occurrences of bigrams that the vocabulary does not retain.
        """
        entries, owners = self._entries(positions)
        entry_slots, counts = slots[self.pairs[entries]], self.counts[entries]
        kept = entry_slots >= 0
        size = int(slots.max()) + 1
        rows = np.bincount(
            owners[kept] * size + entry_slots[kept],
            weights=counts[kept],
            minlength=len(positions) * size,
        )
        dropped = np.bincount(owners[~kept], weights=counts[~kept], minlength=len(positions))
        return rows.reshape(len(positions), size), dropped.astype(np.int64)


def code_corpus(samples: Sequence[OpcodeSequence]) -> CodedCorpus:
    """Code every sample's opcodes against one sorted table and count its bigrams."""
    table = sorted(set().union(*map(_opcodes, samples)))
    code, width = {op: i for i, op in enumerate(table)}.__getitem__, len(table)
    sample_pairs, sample_counts = [], []
    for sample in samples:
        codes = np.fromiter(map(code, sample.opcodes), np.int64, len(sample.opcodes))
        pairs, counts = np.unique(codes[:-1] * width + codes[1:], return_counts=True)
        sample_pairs.append(pairs)
        sample_counts.append(counts)
    # a pair's id is first * A + second over the sorted table, so id order is lexicographic
    pair_ids, pairs = np.unique(np.concatenate(sample_pairs), return_inverse=True)
    firsts, seconds = np.divmod(pair_ids, width)
    bigrams = [(table[a], table[b]) for a, b in zip(firsts.tolist(), seconds.tolist())]
    offsets = np.zeros(len(samples) + 1, dtype=np.intp)
    np.cumsum([len(p) for p in sample_pairs], out=offsets[1:])
    return CodedCorpus(bigrams, pairs, np.concatenate(sample_counts), offsets)


@dataclass(frozen=True, eq=False, init=False)
class OpcodeGraph:
    """Row-normalized bigram transition weights over a fixed vocabulary.

    ``vector`` holds one weight per retained bigram, in the vocabulary's slot
    order. ``OpcodeGraph(vocab, weights)`` accepts the dense V x V form and
    rejects weight on any cell outside the retained bigrams; ``from_vector``
    wraps a vector directly.
    """

    vocab: OpcodeVocabulary
    vector: np.ndarray

    def __init__(self, vocab: OpcodeVocabulary, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        expected = (vocab.size, vocab.size)
        if weights.shape != expected:
            raise ValueError(f"weights shape {weights.shape} != {expected}")
        vector = weights[vocab.cell_rows, vocab.cell_cols]
        off_support = np.count_nonzero(weights) - np.count_nonzero(vector)
        if off_support:
            raise ValueError(f"{off_support} weights lie outside the retained bigrams")
        self._set(vocab, vector)

    @classmethod
    def from_vector(cls, vocab: OpcodeVocabulary, vector: np.ndarray) -> "OpcodeGraph":
        """Graph from a copy of ``vector``, one weight per slot of ``vocab``."""
        vector = np.array(vector, dtype=float)
        expected = vocab.flat_cells.shape
        if vector.shape != expected:
            raise ValueError(f"vector shape {vector.shape} != {expected}")
        graph = cls.__new__(cls)
        graph._set(vocab, vector)
        return graph

    def _set(self, vocab: OpcodeVocabulary, vector: np.ndarray) -> None:
        vector.setflags(write=False)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "vector", vector)

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only dense V x V view; zero outside the retained bigrams."""
        dense = np.zeros((self.vocab.size, self.vocab.size))
        dense[self.vocab.cell_rows, self.vocab.cell_cols] = self.vector
        return _read_only(dense)


def same_vocabulary(a: OpcodeGraph, b: OpcodeGraph) -> bool:
    return a.vocab is b.vocab or a.vocab == b.vocab


def retained_counts(counts: BigramCounts, vocab: OpcodeVocabulary) -> tuple[np.ndarray, int]:
    """Counts of the retained bigrams in slot order, and the occurrences dropped."""
    slot_of = vocab.slots.get
    n = len(counts.counts)
    slots = np.fromiter((slot_of(bigram, -1) for bigram in counts.counts), np.intp, n)
    values = np.fromiter(counts.counts.values(), np.int64, n)
    kept = slots >= 0
    vector = np.zeros(len(vocab.flat_cells))
    vector[slots[kept]] = values[kept]
    return vector, int(values[~kept].sum())


def normalized_graph(vector: np.ndarray, vocab: OpcodeVocabulary) -> OpcodeGraph:
    """Graph from a retained-count vector: each row divided by its own total, if any."""
    totals = np.bincount(vocab.cell_rows, weights=vector, minlength=vocab.size)[vocab.cell_rows]
    vector = np.divide(vector, totals, out=np.zeros(len(totals)), where=totals > 0)
    return OpcodeGraph.from_vector(vocab, vector)


def build_graph(counts: BigramCounts, vocab: OpcodeVocabulary) -> tuple[OpcodeGraph, int]:
    """Build a graph from bigram counts over the retained vocabulary.

    Only retained bigrams contribute; each row is normalized by its own
    retained outgoing total, leaving rows with no retained bigram all zero.
    Returns the graph together with the number of occurrences dropped because
    their bigram is not retained.
    """
    vector, dropped = retained_counts(counts, vocab)
    return normalized_graph(vector, vocab), dropped


def graph_for_sequence(seq: OpcodeSequence, vocab: OpcodeVocabulary) -> tuple[OpcodeGraph, int]:
    """Convenience: count bigrams and build the graph in one step."""
    return build_graph(count_bigrams(seq), vocab)


@dataclass(frozen=True)
class ScoreValue:
    """A graph comparison score, exposed both as distance and similarity."""

    distance: float
    similarity: float


def scaled_l1(vectors: np.ndarray, vector: np.ndarray, vocab_size: int) -> np.ndarray:
    """sum(|vectors - vector|) / (2V) along the last axis, clipped to [0, 1].

    ``vectors`` is one graph vector or a stack of them, one per row.
    """
    difference = vectors - vector
    distances = np.abs(difference, out=difference).sum(axis=-1) / (2.0 * vocab_size)
    return np.clip(distances, 0.0, 1.0)


def graph_distance(a: OpcodeGraph, b: OpcodeGraph) -> ScoreValue:
    """Scaled L1 distance between two graphs on the same vocabulary.

    distance = sum(|a - b|) / (2V), which is 0 exactly for identical graphs
    and at most 1; similarity is its complement.
    """
    if not same_vocabulary(a, b):
        raise VocabularyMismatchError("graphs use different vocabularies")
    distance = float(scaled_l1(a.vector, b.vector, a.vocab.size))
    return ScoreValue(distance, 1.0 - distance)
