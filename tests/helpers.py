"""Shared test data and independent reference implementations.

The reference implementations here are deliberately written in the plainest
possible style, independent of the package internals, so they can serve as
oracles: a textbook region-query DBSCAN, a pair-counting adjusted Rand index,
a double-loop graph distance and a plain-loop graph builder.
"""

import copy
from collections import Counter

import numpy as np

from opsig.clusterer import DistanceMatrix
from opsig.opgraph import OpcodeGraph, OpcodeVocabulary

TABLE1_SEQ1 = (
    "PUSH", "POP", "MOV", "POP", "RET", "MOV",
    "CALL", "PUSH", "PUSH", "CALL", "POP", "MOV",
)
TABLE1_SEQ2 = (
    "MOV", "CALL", "JMP", "MOV", "PUSH", "PUSH",
    "POP", "CALL", "JMP", "PUSH", "MOV", "JMP",
)


def trained_metadata(vocab: OpcodeVocabulary) -> dict[str, object]:
    """Database metadata as training writes it for ``vocab``; the loader accepts no other."""
    return {
        "retain_fraction": vocab.retain_fraction,
        "eps_schedule": [0.01, 0.1],
        "min_pts": 3,
        "seed": 7,
        "signature_mode": "clustered",
    }


def monolithic_document(doc: dict) -> dict:
    """A copy of ``doc``, one signature per class, tagged as monolithic training tags it."""
    doc = copy.deepcopy(doc)
    doc["metadata"]["signature_mode"] = "monolithic"
    for entry in doc["signatures"]:
        entry["round_tag"], entry["id"] = "monolithic", f"{entry['label']}/monolithic/0"
    return doc


def make_vocab(size: int, retain: float = 1.0) -> OpcodeVocabulary:
    """Toy vocabulary of ``size`` opcodes with every bigram retained."""
    opcodes = tuple(f"OP{i:03d}" for i in range(size))
    retained = frozenset((a, b) for a in opcodes for b in opcodes)
    return OpcodeVocabulary(opcodes, retained, retain)


def random_graph(
    vocab: OpcodeVocabulary, rng: np.random.Generator, zero_row_prob: float = 0.0
) -> OpcodeGraph:
    """Random row-stochastic graph, optionally with some all-zero rows."""
    weights = rng.dirichlet(np.ones(vocab.size), size=vocab.size)
    if zero_row_prob > 0.0:
        weights[rng.random(vocab.size) < zero_row_prob] = 0.0
    weights.setflags(write=False)
    return OpcodeGraph(vocab, weights)


def reference_graph(opcodes, vocab: OpcodeVocabulary) -> tuple[np.ndarray, np.ndarray, int]:
    """One sample's retained counts and graph vector over ``vocab``, and its dropped count.

    Adjacent pairs are counted with a ``Counter`` and kept when they are in
    ``vocab.retained_bigrams``. Slots follow ``(index[a], index[b])`` order,
    and each count is divided by its opcode row's retained total as Python
    numbers, so the vector must match the package's graphs bit for bit.
    """
    index = {op: i for i, op in enumerate(vocab.opcodes)}
    slots = sorted(vocab.retained_bigrams, key=lambda pair: (index[pair[0]], index[pair[1]]))
    pairs = Counter(zip(opcodes, opcodes[1:]))
    row_totals: Counter = Counter()
    for pair, n in pairs.items():
        if pair in vocab.retained_bigrams:
            row_totals[pair[0]] += n
    counts = [pairs[pair] for pair in slots]
    weights = [n / row_totals[pair[0]] if n else 0.0 for pair, n in zip(slots, counts)]
    dropped = sum(pairs.values()) - sum(counts)
    return np.array(counts, dtype=float), np.array(weights, dtype=float), dropped


def naive_graph_distance(a: OpcodeGraph, b: OpcodeGraph) -> float:
    """Double-loop L1 oracle for the optimized distance."""
    total = 0.0
    size = a.vocab.size
    for i in range(size):
        for j in range(size):
            total += abs(float(a.weights[i, j]) - float(b.weights[i, j]))
    return total / (2.0 * size)


def reference_distance(a: OpcodeGraph, b: OpcodeGraph) -> float:
    """The kernel's arithmetic on Python floats, one slot at a time in slot order.

    Both masses and the sum of minima are folded left to right over every
    slot, then combined as ``((m_a + m_b) - 2 * o) / 2V`` and clipped at 1, so
    the result must match the optimized distance bit for bit.
    """
    mass_a = mass_b = overlap = 0.0
    for x, y in zip(a.vector.tolist(), b.vector.tolist()):
        mass_a += x
        mass_b += y
        overlap += min(x, y)
    return min(((mass_a + mass_b) - 2.0 * overlap) / (2.0 * a.vocab.size), 1.0)


def reference_dbscan(dist: np.ndarray, eps: float, min_pts: int) -> list[int]:
    """Textbook DBSCAN with on-demand region queries and a seed list.

    Shares the package's determinism rule: points are scanned and expanded in
    ascending index order, so border points go to the first cluster that
    reaches them.
    """
    n = dist.shape[0]
    unclassified, noise = -2, -1
    labels = [unclassified] * n
    cluster = 0
    for point in range(n):
        if labels[point] != unclassified:
            continue
        seeds = [q for q in range(n) if dist[point][q] <= eps]
        if len(seeds) < min_pts:
            labels[point] = noise
            continue
        queue = []
        for q in seeds:
            # border points keep the first cluster that reached them
            if labels[q] in (unclassified, noise):
                labels[q] = cluster
                if q != point:
                    queue.append(q)
        while queue:
            current = queue.pop(0)
            neighbors = [q for q in range(n) if dist[current][q] <= eps]
            if len(neighbors) >= min_pts:
                for q in neighbors:
                    if labels[q] in (unclassified, noise):
                        if labels[q] == unclassified:
                            queue.append(q)
                        labels[q] = cluster
        cluster += 1
    return labels


def adjusted_rand_index(a: list, b: list) -> float:
    """Pair-counting adjusted Rand index."""
    assert len(a) == len(b)

    def pairs(count: int) -> float:
        return count * (count - 1) / 2.0

    joint = Counter(zip(a, b))
    sum_joint = sum(pairs(c) for c in joint.values())
    sum_a = sum(pairs(c) for c in Counter(a).values())
    sum_b = sum(pairs(c) for c in Counter(b).values())
    total = pairs(len(a))
    if total == 0:
        return 1.0
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        return 1.0
    return (sum_joint - expected) / (maximum - expected)


def random_distance_matrix(rng: np.random.Generator, n: int) -> DistanceMatrix:
    values = rng.random((n, n))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tuple(f"p{i:02d}" for i in range(n)), values)


def two_scale_matrix(
    rng: np.random.Generator, group_size: int = 6
) -> tuple[DistanceMatrix, list[int]]:
    """Two tight blobs (intra <= 0.005) plus two loose blobs (intra <= 0.05).

    Tight blobs are separable at eps 0.01, loose blobs only at eps 0.1, and
    every cross-blob distance is at least 0.5.
    """
    groups = np.repeat(np.arange(4), group_size)
    n = len(groups)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if groups[i] != groups[j]:
                d = rng.uniform(0.5, 0.9)
            elif groups[i] < 2:
                d = rng.uniform(0.001, 0.005)
            else:
                d = rng.uniform(0.02, 0.05)
            values[i, j] = values[j, i] = d
    ids = tuple(f"s{i:02d}" for i in range(n))
    return DistanceMatrix(ids, values), groups.tolist()
