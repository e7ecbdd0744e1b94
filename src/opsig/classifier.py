"""Nearest-signature classification, single sample and batch."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyDatabaseError, OpsigError, VocabularyMismatchError
from .ingest import BENIGN_LABEL
from .opgraph import OpcodeGraph, scaled_l1
from .signatures import SignatureDatabase

MALWARE_VERDICT = "malware"
BENIGN_VERDICT = BENIGN_LABEL


@dataclass(frozen=True)
class Prediction:
    """Outcome of matching one sample against every signature."""

    sample_id: str
    predicted_label: str
    best_signature_id: str
    best_distance: float
    ranking: tuple[tuple[str, float], ...]

    def to_row(self) -> str:
        return (
            f"{self.sample_id},{self.predicted_label},"
            f"{self.best_signature_id},{self.best_distance!r}"
        )

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


def _nearest(graph: OpcodeGraph, db: SignatureDatabase, sample_id: str) -> Prediction:
    if not (graph.vocab is db.vocabulary or graph.vocab == db.vocabulary):
        raise VocabularyMismatchError(
            f"sample {sample_id!r} was built on a different vocabulary"
        )
    signatures = db.signatures
    distances = scaled_l1(db.vectors, graph.vector, db.vocabulary.size).tolist()
    order = sorted(
        range(len(signatures)), key=lambda i: (distances[i], signatures[i].signature_id)
    )
    ranking = tuple((signatures[i].signature_id, distances[i]) for i in order)
    best = signatures[order[0]]
    return Prediction(sample_id, best.class_label, best.signature_id, distances[order[0]], ranking)


def classify(
    sample_graph: OpcodeGraph, db: SignatureDatabase, sample_id: str = "sample"
) -> Prediction:
    """Assign the class of the nearest signature.

    Exact distance ties are broken by lexicographic signature id, so results
    are deterministic.
    """
    if not db.signatures:
        raise EmptyDatabaseError("signature database has no signatures")
    return _nearest(sample_graph, db, sample_id)


def classify_binary(
    sample_graph: OpcodeGraph, db: SignatureDatabase, sample_id: str = "sample"
) -> tuple[str, Prediction]:
    """Malware/benign verdict: benign iff the winning signature is benign."""
    if BENIGN_LABEL not in {sig.class_label for sig in db.signatures}:
        raise OpsigError(f"database has no {BENIGN_LABEL!r} class")
    prediction = classify(sample_graph, db, sample_id)
    verdict = (
        BENIGN_VERDICT if prediction.predicted_label == BENIGN_LABEL else MALWARE_VERDICT
    )
    return verdict, prediction


def classify_batch(
    samples: Sequence[tuple[str, OpcodeGraph]],
    db: SignatureDatabase,
    parallelism: int | None = None,
) -> list[Prediction | OpsigError]:
    """Classify many samples; output order matches input order.

    Per-sample domain errors are returned in place of a prediction instead of
    aborting the batch. Results do not depend on the parallelism degree.
    """
    if not samples:
        return []
    if not db.signatures:
        raise EmptyDatabaseError("signature database has no signatures")

    def work(item: tuple[str, OpcodeGraph]) -> Prediction | OpsigError:
        sample_id, graph = item
        try:
            return _nearest(graph, db, sample_id)
        except OpsigError as err:
            return err

    workers = parallelism if parallelism is not None else (os.cpu_count() or 1)
    if workers <= 1:
        return [work(item) for item in samples]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, samples))
