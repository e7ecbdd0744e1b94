"""Nearest-signature classification, single sample and batch."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .csvtext import csv_text
from .errors import EmptyDatabaseError, EmptyGraphError, OpsigError, VocabularyMismatchError
from .opgraph import OpcodeGraph, same_vocabulary, scaled_l1
from .signatures import SignatureDatabase

MALWARE_VERDICT = "malware"
# signatures a prediction ranks: at least 2, so a runner-up shows whenever there is one
RANKING_LENGTH = 5


@dataclass(frozen=True)
class Prediction:
    """Outcome of matching one sample against every signature.

    ``ranking`` holds the ``RANKING_LENGTH`` nearest signatures (all of them
    when there are fewer) as ``(signature_id, distance)`` pairs, nearest
    first, with equal distances in signature id order; the best signature is
    its first entry.
    """

    sample_id: str
    predicted_label: str
    best_signature_id: str
    best_distance: float
    ranking: tuple[tuple[str, float], ...]

    def to_row(self) -> str:
        fields = (self.sample_id, self.predicted_label, self.best_signature_id,
                  repr(self.best_distance))
        return csv_text([fields])[:-1]

    def to_json_dict(self) -> dict[str, object]:
        return {
            "sample_id": self.sample_id,
            "predicted_label": self.predicted_label,
            "best_signature_id": self.best_signature_id,
            "best_distance": self.best_distance,
            "ranking": [
                {"signature_id": sid, "distance": dist} for sid, dist in self.ranking
            ],
        }


def _score(
    samples: Sequence[tuple[str, OpcodeGraph]], db: SignatureDatabase
) -> list[Prediction | OpsigError]:
    """Rank the nearest signatures for every sample: one distance table, one sort.

    Signatures are held in id order and the sort is stable, so its first
    ``RANKING_LENGTH`` columns are the nearest signatures in (distance, id)
    order, and only their distances are turned into Python floats. A sample
    on another vocabulary gets a ``VocabularyMismatchError`` in its slot, and
    a sample with an all-zero graph an ``EmptyGraphError``.
    """
    vocab, signatures = db.vocabulary, db.signatures
    results: list[Prediction | OpsigError | None] = [None] * len(samples)
    for i, (sample_id, graph) in enumerate(samples):
        if not same_vocabulary(graph.vocab, vocab):
            message = f"sample {sample_id!r} was built on a different vocabulary"
            results[i] = VocabularyMismatchError(message)
        elif not graph.vector.any():  # it would be nearest to the emptiest signature
            results[i] = EmptyGraphError(f"sample {sample_id!r} has no retained bigram to match on")
    scored = [i for i, result in enumerate(results) if result is None]
    if scored:
        distances = scaled_l1(db.layout, [samples[i][1].vector for i in scored], vocab.size)
        orders = np.argsort(distances, axis=1, kind="stable")[:, :RANKING_LENGTH]
        nearest = distances[np.arange(len(orders))[:, None], orders]
        for i, row, order in zip(scored, nearest.tolist(), orders.tolist()):
            ranking = tuple((signatures[j].signature_id, d) for j, d in zip(order, row))
            best = signatures[order[0]]
            results[i] = Prediction(
                samples[i][0], best.class_label, best.signature_id, row[0], ranking
            )
    return results


def classify(
    sample_graph: OpcodeGraph, db: SignatureDatabase, sample_id: str = "sample"
) -> Prediction:
    """Assign the class of the nearest signature.

    Exact distance ties are broken by lexicographic signature id, so results
    are deterministic.
    """
    if not db.signatures:
        raise EmptyDatabaseError("signature database has no signatures")
    (result,) = _score([(sample_id, sample_graph)], db)
    if isinstance(result, OpsigError):
        raise result
    return result


def classify_batch(
    samples: Sequence[tuple[str, OpcodeGraph]],
    db: SignatureDatabase,
    parallelism: int | None = None,
) -> list[Prediction | OpsigError]:
    """Classify many samples; output order matches input order.

    Each prediction ranks the ``RANKING_LENGTH`` nearest signatures.
    Per-sample domain errors are returned in place of a prediction instead of
    aborting the batch. Scoring runs on the calling thread; ``parallelism`` is
    accepted for compatibility and ignored.
    """
    if not samples:
        return []
    if not db.signatures:
        raise EmptyDatabaseError("signature database has no signatures")
    return _score(samples, db)
