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

Weights are non-negative, so ``|a - b| = a + b - 2 min(a, b)`` and the
distance is ``(mass(a) + mass(b) - 2 * sum(min(a, b))) / 2V``, where a mass is
the sum of a vector's weights and the sum of minima runs over the slots where
b is non-zero only: scoring costs follow the sample's support, not the number
of retained bigrams. The graphs scored against are laid out once, slot-major,
with their masses (``graph_layout``), and each call scores a whole table of
queries against them. Every sum adds one term at a time in slot order: a
block of two or more columns takes one ``np.add.reduce`` over its rows, which
numpy adds whole row by whole row, first to last, and a single column takes
the last row of a ``cumsum``, because numpy would reduce it pairwise. Adding a
zero term changes no bit, so the kernel is exact where it matters: identical
vectors score exactly 0.0, swapping the two graphs changes no bit, and a pair
scores the same bits alone as inside any table.

Both classification and training code opcodes as integers, and every bigram
finds its graph-vector slot through one method, ``OpcodeVocabulary.slot_of``.
Each sample carries its opcodes' codes from where it was made
(``OpcodeSequence.coding``), so counting maps a sample's names, not its
opcodes. Training maps a whole corpus onto one table with ``code_corpus`` and
takes its vocabularies and count rows from it; ``graph_for_sequence`` codes
one freshly parsed sample against the vocabulary directly. ``build_graph``
takes the same counts as a dict keyed by bigram, as ``count_bigrams`` and
``merge_counts`` give them; ``count_bigrams`` counts the pair codes of one
sample's coding with one ``np.unique``. A count dict's key order is not part
of its contract.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, repeat
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpusError, EmptySampleError, VocabularyMismatchError, check_real
from .ingest import OpcodeSequence

Bigram = tuple[str, str]

DEFAULT_RETAIN_FRACTION = 0.9


@dataclass(frozen=True)
class BigramCounts:
    """Occurrence counts of ordered opcode pairs for one or more samples."""

    counts: dict[Bigram, int]
    total: int

    def __post_init__(self) -> None:
        values = self.counts.values()
        # exact types, so a float is not truncated later and a bool is no count
        if set(map(type, values)) - {int} or type(self.total) is not int:
            raise ValueError("bigram counts and their total must be int")
        if self.total != sum(values):
            raise ValueError("total does not match the sum of bigram counts")
        if min(values, default=1) < 1:
            raise ValueError("bigram counts must be >= 1")


def _checked(seq: OpcodeSequence) -> OpcodeSequence:
    """``seq``, which must hold an opcode."""
    if not seq.opcodes:
        raise EmptySampleError(f"sample {seq.sample_id!r} has no opcodes")
    return seq


def count_bigrams(seq: OpcodeSequence) -> BigramCounts:
    """Count adjacent opcode pairs; a sequence of length L has L - 1 of them.

    The pair ids ``first * width + second`` of the sample's ``coding`` (its
    names mapped by value to distinct codes; width: the distinct names) are
    counted with one ``np.unique``, so a key tuple is built per distinct pair,
    not per occurrence. Keys and counts are those of
    ``Counter(zip(opcodes, opcodes[1:]))``; the dict's key order is not part
    of the result.
    """
    names, codes = _checked(seq).coding
    code = defaultdict(count().__next__)
    local = np.fromiter(map(code.__getitem__, names), np.intp, len(names))
    codes, keys, width = local[codes], list(code), len(code)
    pair_ids, counts = np.unique(codes[:-1] * width + codes[1:], return_counts=True)
    firsts, seconds = np.divmod(pair_ids, width)
    pairs = zip(map(keys.__getitem__, firsts.tolist()), map(keys.__getitem__, seconds.tolist()))
    return BigramCounts(dict(zip(pairs, counts.tolist())), len(codes) - 1)


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "retain_fraction", check_retain_fraction(self.retain_fraction))

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
    def _row_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """First slot and slot count of each opcode row that holds a retained bigram."""
        starts = np.flatnonzero(np.diff(self.cell_rows, prepend=-1))
        return _read_only(starts), _read_only(np.diff(starts, append=len(self.flat_cells)))

    @cached_property
    def _slot_table(self) -> np.ndarray:
        """Slot of cell ``row * (V + 1) + col``; -1 where not retained or an index is V."""
        width = self.size + 1
        table = np.full(width * width, -1, dtype=np.intp)
        table[self.cell_rows * width + self.cell_cols] = np.arange(len(self.flat_cells))
        return _read_only(table)

    def slot_of(self, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        """Graph-vector slot of each bigram ``(firsts[k], seconds[k])`` of opcode indices.

        Indices lie in [0, V], where V stands for an opcode outside the
        vocabulary. A bigram that is not retained, or holds index V, has slot -1.
        """
        return self._slot_table[firsts * (self.size + 1) + seconds]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def check_retain_fraction(retain_fraction: float) -> float:
    """``retain_fraction`` as a ``float``, if ``errors.check_real`` finds it in (0, 1]."""
    return check_real("retain_fraction", retain_fraction, 0, 1, low_open=True)


def _rank_and_cut(
    bigrams: Sequence[Bigram], counts: np.ndarray, retain_fraction: float
) -> OpcodeVocabulary:
    """The vocabulary of the top bigrams covering ``retain_fraction`` of all occurrences.

    ``bigrams`` are in lexicographic order and ``counts`` holds their integer
    counts, zero allowed. Bigrams rank by count descending, ties in bigram
    order, and the shortest ranked prefix reaching the threshold is retained.
    """
    check_retain_fraction(retain_fraction)
    total = int(counts.sum())
    if total <= 0:
        raise EmptyCorpusError("cannot build a vocabulary from zero bigrams")
    ranked = np.argsort(-counts, kind="stable")
    target = retain_fraction * total
    # Guard against float spill, e.g. 0.9 * 10 -> 9.000000000000002.
    threshold = math.ceil(target - 1e-9 * max(1.0, target))
    cut = int(np.searchsorted(np.cumsum(counts[ranked]), threshold)) + 1
    retained = [bigrams[i] for i in ranked[:cut].tolist()]
    opcodes = sorted({op for pair in retained for op in pair})
    return OpcodeVocabulary(tuple(opcodes), frozenset(retained), retain_fraction)


def build_vocabulary(
    corpus_counts: BigramCounts, retain_fraction: float = DEFAULT_RETAIN_FRACTION
) -> OpcodeVocabulary:
    """Keep the top bigrams covering ``retain_fraction`` of all occurrences."""
    bigrams = sorted(corpus_counts.counts)
    counts = np.fromiter(map(corpus_counts.counts.__getitem__, bigrams), np.int64, len(bigrams))
    return _rank_and_cut(bigrams, counts, retain_fraction)


@dataclass(frozen=True, eq=False)
class CodedCorpus:
    """Every sample's id, label and bigram counts, the counts coded once as integers.

    ``opcodes`` is the corpus's sorted opcode table: every name of the samples'
    codings, so it may hold a name that no sample uses (an alphabet name no
    walk reached), which no bigram then holds. Row ``k`` of ``bigram_codes``
    holds the table indices of distinct bigram ``k``, in lexicographic order.
    Sample ``i`` has ``counts[j]`` occurrences of distinct bigram ``pairs[j]``
    for each ``j`` in ``range(offsets[i], offsets[i + 1])``. It is the
    ``i``-th sample coded, with id ``sample_ids[i]`` and label ``labels[i]``.
    """

    opcodes: list[str]
    bigram_codes: np.ndarray
    pairs: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    sample_ids: tuple[str, ...]
    labels: tuple[str | None, ...]

    @cached_property
    def bigrams(self) -> list[Bigram]:
        """The distinct bigrams, in lexicographic order."""
        return [(self.opcodes[a], self.opcodes[b]) for a, b in self.bigram_codes.tolist()]

    def _entries(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Each entry of the samples at ``positions``, with the index of its sample there."""
        positions = np.asarray(positions, dtype=np.intp)
        lengths = np.diff(self.offsets)[positions]
        owners = np.repeat(np.arange(len(positions)), lengths)
        # gathered entry k lies k - (entries gathered before its sample) past that sample's start
        shifts = self.offsets[positions] - (np.cumsum(lengths) - lengths)
        return np.arange(len(owners)) + shifts[owners], owners

    def vocabulary(self, positions: Sequence[int], retain_fraction: float) -> OpcodeVocabulary:
        """The vocabulary of the samples at ``positions``, as ``build_vocabulary`` filters it."""
        entries, _ = self._entries(positions)
        totals = np.bincount(
            self.pairs[entries], weights=self.counts[entries], minlength=len(self.bigram_codes)
        )
        return _rank_and_cut(self.bigrams, totals.astype(np.int64), retain_fraction)

    def count_rows(
        self, positions: Sequence[int], vocab: OpcodeVocabulary
    ) -> tuple[np.ndarray, np.ndarray]:
        """Counts of ``vocab``'s retained bigrams in slot order, a row per sample at ``positions``.

        Also returns each sample's occurrences of bigrams that ``vocab`` does not retain.
        """
        codes = _vocabulary_codes(self.opcodes, vocab, len(self.opcodes))
        slots = vocab.slot_of(*codes[self.bigram_codes].T)
        entries, owners = self._entries(positions)
        entry_slots, counts = slots[self.pairs[entries]], self.counts[entries]
        kept = entry_slots >= 0
        size = len(vocab.flat_cells)
        rows = np.bincount(
            owners[kept] * size + entry_slots[kept],
            weights=counts[kept],
            minlength=len(positions) * size,
        )
        dropped = np.bincount(owners[~kept], weights=counts[~kept], minlength=len(positions))
        return rows.reshape(len(positions), size), dropped.astype(np.int64)


def _vocabulary_codes(opcodes: Iterable[str], vocab: OpcodeVocabulary, length: int) -> np.ndarray:
    """Each of the ``length`` opcodes' index in ``vocab``, or V for an opcode outside it."""
    return np.fromiter(map(vocab.index.get, opcodes, repeat(vocab.size)), np.intp, length)


def code_corpus(samples: Sequence[OpcodeSequence]) -> CodedCorpus:
    """Map every sample's ``coding`` onto one sorted table and count its bigrams, in input order.

    The table holds every name of every sample's coding, by value. A sample
    maps its names to table indices through a dict, once per distinct names
    sequence, then gathers its codes through them.
    """
    codings = [sample.coding for sample in map(_checked, samples)]
    tables = {id(names): names for names, _ in codings}  # samples often share one names tuple
    table = sorted(set().union(*tables.values()))
    position, width = {op: i for i, op in enumerate(table)}.__getitem__, len(table)
    indices = {
        key: np.fromiter(map(position, names), np.int64, len(names)) for key, names in tables.items()
    }
    sample_pairs, sample_counts = [], []
    for names, codes in codings:
        codes = indices[id(names)][codes]  # int64, so the pair ids cannot overflow
        pairs, counts = np.unique(codes[:-1] * width + codes[1:], return_counts=True)
        sample_pairs.append(pairs)
        sample_counts.append(counts)
    # a pair's id is first * A + second over the sorted table, so id order is lexicographic
    pair_ids, pairs = np.unique(np.concatenate(sample_pairs), return_inverse=True)
    bigram_codes = np.stack(np.divmod(pair_ids, width), axis=1)
    offsets = np.zeros(len(samples) + 1, dtype=np.intp)
    np.cumsum([len(p) for p in sample_pairs], out=offsets[1:])
    return CodedCorpus(
        table, bigram_codes, pairs, np.concatenate(sample_counts), offsets,
        tuple(sample.sample_id for sample in samples), tuple(sample.label for sample in samples),
    )


@dataclass(frozen=True, eq=False, init=False)
class OpcodeGraph:
    """Row-normalized bigram transition weights over a fixed vocabulary.

    ``vector`` holds one weight per retained bigram, in the vocabulary's slot
    order. ``OpcodeGraph(vocab, weights)`` accepts the dense V x V form and
    rejects weight on any cell outside the retained bigrams; ``from_vector``
    wraps a vector directly. Graphs are equal when their vocabularies are the
    same and their vectors equal; a graph holds an array, so it is unhashable.
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
        return cls._wrap(vocab, vector)

    @classmethod
    def _wrap(cls, vocab: OpcodeVocabulary, vector: np.ndarray) -> "OpcodeGraph":
        """Graph holding ``vector`` itself, which becomes read-only."""
        graph = cls.__new__(cls)
        graph._set(vocab, vector)
        return graph

    def _set(self, vocab: OpcodeVocabulary, vector: np.ndarray) -> None:
        vector.setflags(write=False)
        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "vector", vector)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpcodeGraph):
            return NotImplemented
        return same_vocabulary(self.vocab, other.vocab) and np.array_equal(
            self.vector, other.vector
        )

    __hash__ = None

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only dense V x V view; zero outside the retained bigrams."""
        dense = np.zeros((self.vocab.size, self.vocab.size))
        dense[self.vocab.cell_rows, self.vocab.cell_cols] = self.vector
        return _read_only(dense)


def same_vocabulary(a: OpcodeVocabulary, b: OpcodeVocabulary) -> bool:
    return a is b or a == b


def normalized_graphs(rows: np.ndarray, vocab: OpcodeVocabulary) -> list[OpcodeGraph]:
    """One graph per row of retained counts: each opcode row divided by its own total, if any."""
    rows = np.asarray(rows, dtype=float)
    starts, lengths = vocab._row_spans
    # the counts are integers, so every summation order gives the same exact totals
    totals = np.add.reduceat(rows, starts, axis=1)
    totals[totals == 0.0] = 1.0  # an opcode row with no count divides by 1 and stays zero
    weights = np.repeat(totals, lengths, axis=1)
    np.divide(rows, weights, out=weights)
    return [OpcodeGraph._wrap(vocab, vector) for vector in weights]


def build_graph(counts: BigramCounts, vocab: OpcodeVocabulary) -> tuple[OpcodeGraph, int]:
    """Build a graph from bigram counts over the retained vocabulary.

    Only retained bigrams contribute; each row is normalized by its own
    retained outgoing total, leaving rows with no retained bigram all zero.
    Returns the graph together with the number of occurrences dropped because
    their bigram is not retained.
    """
    codes = _vocabulary_codes(chain.from_iterable(counts.counts), vocab, 2 * len(counts.counts))
    slots = vocab.slot_of(codes[0::2], codes[1::2])
    kept = slots >= 0
    values = np.fromiter(counts.counts.values(), np.int64, len(slots))[kept]
    vector = np.bincount(slots[kept], weights=values, minlength=len(vocab.flat_cells))
    (graph,) = normalized_graphs([vector], vocab)
    return graph, counts.total - int(values.sum())


def graph_for_sequence(seq: OpcodeSequence, vocab: OpcodeVocabulary) -> tuple[OpcodeGraph, int]:
    """``build_graph(count_bigrams(seq), vocab)``, each opcode pair looked up by ``slot_of``."""
    codes = _vocabulary_codes(_checked(seq).opcodes, vocab, len(seq.opcodes))
    slots = vocab.slot_of(codes[:-1], codes[1:])
    kept = slots[slots >= 0]
    (graph,) = normalized_graphs([np.bincount(kept, minlength=len(vocab.flat_cells))], vocab)
    return graph, len(slots) - len(kept)


@dataclass(frozen=True)
class ScoreValue:
    """A graph comparison score, exposed both as distance and similarity."""

    distance: float
    similarity: float


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along the first axis one term at a time, in order.

    Unlike numpy's pairwise ``sum``, a zero term then changes no bit of the result.
    numpy reduces a C-ordered block of two or more columns by adding whole rows,
    first to last, so such a block takes one ``np.add.reduce``. Along a single
    column, or in another memory order, numpy would sum pairwise, so there the
    last row of a ``cumsum`` is taken.
    """
    if terms.ndim == 2 and terms.shape[1] > 1 and terms.flags.c_contiguous:
        return np.add.reduce(terms, axis=0)
    if not len(terms):
        return np.zeros(terms.shape[1:])
    return terms.cumsum(axis=0)[-1]


def graph_layout(vectors: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Graph vectors as ``scaled_l1`` scores against them, read-only.

    Returns the vectors as columns, one row per slot, and each vector's mass.
    """
    columns = np.stack(vectors, axis=1)
    return _read_only(columns), _read_only(_sequential_sum(columns))


def scaled_l1(
    layout: tuple[np.ndarray, np.ndarray],
    queries: Sequence[np.ndarray] | None,
    vocab_size: int,
) -> np.ndarray:
    """Table of sum(|graph - query|) / (2V), at most 1, against each graph of a ``graph_layout``.

    Row ``q`` scores ``queries[q]``, column ``g`` the layout's graph ``g``.
    ``queries=None`` scores the layout's own graphs against each other: row
    ``i`` then holds graph ``i``'s distances to the graphs after it, and every
    cell on or below the diagonal is 0. Only the slots where a query is
    non-zero are visited (see the module docstring). Rounding is monotone and
    each sum of minima is at most either mass, so no distance falls below 0.
    """
    columns, masses = layout
    if queries is None:  # every support from one nonzero, every mass from the layout
        owners, cells = np.nonzero(columns.T)
        values = columns[cells, owners]
        bounds = np.searchsorted(owners, np.arange(len(masses) + 1)).tolist()
        query_masses = masses
    else:
        query_masses = np.empty(len(queries))
    overlaps = np.zeros((len(query_masses), len(masses)))
    for q, row in enumerate(overlaps):
        if queries is None:  # graph q against the graphs after it
            start, support = q + 1, slice(bounds[q], bounds[q + 1])
            slots, weights = cells[support], values[support]
        else:  # built per row, so a batch holds no per-query arrays at once
            start, slots = 0, np.flatnonzero(queries[q])
            weights = queries[q][slots]
            query_masses[q] = _sequential_sum(weights)
        terms = columns[slots, start:]
        np.minimum(terms, weights[:, None], out=terms)
        row[start:] = _sequential_sum(terms)
    distances = masses + query_masses[:, None]
    overlaps *= 2.0  # in place, so a class matrix needs no third table
    distances -= overlaps
    distances /= 2.0 * vocab_size
    np.minimum(distances, 1.0, out=distances)
    return np.triu(distances, 1) if queries is None else distances


def graph_distance(a: OpcodeGraph, b: OpcodeGraph) -> ScoreValue:
    """Scaled L1 distance between two graphs on the same vocabulary.

    distance = sum(|a - b|) / (2V), which is 0 exactly for identical graphs
    and at most 1; similarity is its complement.
    """
    if not same_vocabulary(a.vocab, b.vocab):
        raise VocabularyMismatchError("graphs use different vocabularies")
    distance = float(scaled_l1(graph_layout([a.vector]), [b.vector], a.vocab.size)[0, 0])
    return ScoreValue(distance, 1.0 - distance)
