"""Naive reference for nearest-signature classification.

It rebuilds a sample's graph with a plain loop over its opcodes and scores it
against every signature by a dense sum of ``|a - b|`` over
``Signature.graph.weights``, sharing nothing with opsig's scoring code but
the database it reads.
"""

from __future__ import annotations

import numpy as np

# Distances within this of the minimum count as a tie, broken by signature id:
# opsig and this oracle sum the same terms in different orders.
TIE_TOLERANCE = 1e-9


def naive_graph(opcodes, vocab) -> np.ndarray:
    """Row-normalised counts of the sample's retained bigrams, as a dense V x V array."""
    index = {op: i for i, op in enumerate(vocab.opcodes)}
    weights = np.zeros((len(vocab.opcodes), len(vocab.opcodes)))
    for first, second in zip(opcodes, opcodes[1:]):
        if (first, second) in vocab.retained_bigrams:
            weights[index[first], index[second]] += 1.0
    totals = weights.sum(axis=1, keepdims=True)
    np.divide(weights, totals, out=weights, where=totals > 0)
    return weights


def nearest_signature(weights: np.ndarray, db) -> tuple[str, dict[str, float]]:
    """The id of the nearest signature, and every signature's distance."""
    denom = 2.0 * len(db.vocabulary.opcodes)
    distances = {
        sig.signature_id: float(np.abs(sig.graph.weights - weights).sum()) / denom
        for sig in db.signatures
    }
    best = min(distances.values())
    winner = min(sid for sid, d in distances.items() if d <= best + TIE_TOLERANCE)
    return winner, distances


def check_prediction(prediction, opcodes, db) -> str | None:
    """Compare one opsig prediction with the oracle; return a mismatch description or None."""
    winner, distances = nearest_signature(naive_graph(opcodes, db.vocabulary), db)
    labels = {sig.signature_id: sig.class_label for sig in db.signatures}
    if prediction.best_signature_id != winner:
        return (
            f"{prediction.sample_id}: predicted signature {prediction.best_signature_id!r}, "
            f"oracle {winner!r}"
        )
    if prediction.predicted_label != labels[winner]:
        return (
            f"{prediction.sample_id}: predicted label {prediction.predicted_label!r}, "
            f"oracle {labels[winner]!r}"
        )
    if abs(prediction.best_distance - distances[winner]) > TIE_TOLERANCE:
        return (
            f"{prediction.sample_id}: distance {prediction.best_distance!r}, "
            f"oracle {distances[winner]!r}"
        )
    return None
