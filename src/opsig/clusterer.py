"""Per-family distance matrices and multi-round density clustering.

Sub-family discovery runs DBSCAN over a precomputed distance matrix once per
eps value of an ascending schedule: each round clusters only the points the
previous round left as noise, and whatever remains after the last round is
kept as singleton groups.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .csvtext import csv_text
from .errors import UnknownSampleError, VocabularyMismatchError, check_integer, check_real
from .opgraph import (
    OpcodeGraph,
    OpcodeVocabulary,
    graph_layout,
    normalized_graphs,
    same_vocabulary,
    scaled_l1,
)

NOISE = -1
DEFAULT_EPS_SCHEDULE = (0.01, 0.1)
DEFAULT_MIN_PTS = 3


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise distances for one family's samples."""

    sample_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.sample_ids)
        if self.values.shape != (n, n):
            raise ValueError(f"values shape {self.values.shape} != ({n}, {n})")
        if len(set(self.sample_ids)) != n:
            raise ValueError("sample ids must be unique")
        if n and not np.allclose(self.values, self.values.T, rtol=0.0, atol=1e-12):
            raise ValueError("distance matrix must be symmetric")
        if n and np.abs(np.diagonal(self.values)).max() > 1e-12:
            raise ValueError("distance matrix must have a zero diagonal")
        if n and (self.values.min() < -1e-12 or self.values.max() > 1.0 + 1e-12):
            raise ValueError("distance values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.sample_ids)


def compute_distance_matrix(graphs: Sequence[tuple[str, OpcodeGraph]]) -> DistanceMatrix:
    """Pairwise graph distances, computed once per unordered pair and mirrored."""
    if not graphs:
        raise ValueError("at least one graph is required")
    ids = tuple(sample_id for sample_id, _ in graphs)
    first = graphs[0][1]
    for _, graph in graphs[1:]:
        if not same_vocabulary(first.vocab, graph.vocab):
            raise VocabularyMismatchError("all graphs must share one vocabulary")
    layout = graph_layout([graph.vector for _, graph in graphs])
    values = scaled_l1(layout, None, first.vocab.size)
    values += values.T
    return DistanceMatrix(ids, values)


def class_matrix(rows: np.ndarray, vocab: OpcodeVocabulary) -> DistanceMatrix:
    """Distances between the graphs of one class's count rows; row ``i`` is named ``str(i)``."""
    return compute_distance_matrix(
        [(str(i), graph) for i, graph in enumerate(normalized_graphs(rows, vocab))]
    )


def submatrix(matrix: DistanceMatrix, keep_ids: Iterable[str]) -> DistanceMatrix:
    """Row/column restriction preserving the original order.

    Distances are pairwise-independent, so nothing is recomputed.
    """
    keep = set(keep_ids)
    known = set(matrix.sample_ids)
    missing = sorted(keep - known)
    if missing:
        raise UnknownSampleError(f"ids not in matrix: {missing}")
    indices = [i for i, sid in enumerate(matrix.sample_ids) if sid in keep]
    idx = np.array(indices, dtype=int)
    return DistanceMatrix(
        tuple(matrix.sample_ids[i] for i in indices),
        matrix.values[np.ix_(idx, idx)].copy(),
    )


def dbscan(matrix: DistanceMatrix, eps: float, min_pts: int) -> np.ndarray:
    """Density clustering over a precomputed distance matrix.

    A point is core iff at least ``min_pts`` points (itself included) lie
    within ``eps``. Returns one label per sample: cluster ids from 0, or
    NOISE. Clusters start from core points in ascending index order, and a
    border point joins the first cluster that reaches it, which pins down its
    otherwise ambiguous assignment.
    """
    eps = check_real("eps", eps, 0, math.inf, low_open=True)
    return _dbscan(matrix.values, eps, check_integer("min_pts", min_pts, 1))


def _dbscan(values: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """``dbscan`` over a square array of distances, with ``eps`` and ``min_pts`` already checked."""
    n = len(values)
    # every point's neighbours, itself included, from one comparison: row i's
    # columns are ``columns[bounds[i]:bounds[i + 1]]``, ascending
    points, columns = np.nonzero(values <= eps)
    bounds = np.searchsorted(points, np.arange(n + 1)).tolist()
    columns = columns.tolist()
    core = [bounds[i + 1] - bounds[i] >= min_pts for i in range(n)]
    labels = [NOISE] * n
    cluster = 0
    for start in range(n):
        if labels[start] != NOISE or not core[start]:
            continue
        # a point is labelled as it is queued, and only a noise point is, so each
        # point enters the frontier at most once; only core points extend it
        labels[start] = cluster
        frontier = [start]
        while frontier:
            point = frontier.pop()
            for neighbor in columns[bounds[point] : bounds[point + 1]]:
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster
                    if core[neighbor]:
                        frontier.append(neighbor)
        cluster += 1
    return np.array(labels, dtype=np.int64)


def validate_eps_schedule(values: Iterable[float]) -> tuple[float, ...]:
    """Check an eps schedule: each value in (0, 1], strictly increasing.

    The schedule must be an iterable other than a string or ``bytes``, read
    once. Each value must pass ``errors.check_real``, so a ``bool``, a string
    or ``None`` is rejected like a value outside (0, 1], as a ``ValueError``.
    """
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ValueError(f"eps_schedule must be a sequence of numbers, got {values!r}")
    eps_values: list[float] = []
    for value in values:
        try:
            eps_values.append(check_real("eps", value, 0, 1, low_open=True))
        except ValueError:
            raise ValueError(f"eps values must lie in (0, 1], got {value!r}") from None
    if any(b <= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError(f"eps values must be strictly increasing, got {tuple(eps_values)}")
    return tuple(eps_values)


@dataclass(frozen=True)
class Cluster:
    """One discovered group: an eps-round cluster or a leftover singleton."""

    member_ids: tuple[str, ...]
    round_index: int | None  # 1-based eps round, None for leftover singletons
    eps: float | None

    @property
    def is_singleton_leftover(self) -> bool:
        return self.round_index is None

    @property
    def round_tag(self) -> str:
        return "singleton" if self.round_index is None else f"r{self.round_index}"


@dataclass(frozen=True)
class ClusterSet:
    """All groups discovered for one family; groups partition its samples."""

    family: str
    groups: tuple[Cluster, ...]

    @property
    def sample_count(self) -> int:
        return sum(len(group.member_ids) for group in self.groups)

    @property
    def cluster_count(self) -> int:
        return sum(1 for group in self.groups if not group.is_singleton_leftover)

    @property
    def unclustered_count(self) -> int:
        return sum(len(g.member_ids) for g in self.groups if g.is_singleton_leftover)

    def membership(self) -> dict[str, int]:
        """Map each sample id to the index of its group."""
        return {
            sid: pos for pos, group in enumerate(self.groups) for sid in group.member_ids
        }


def multi_round_cluster(
    matrix: DistanceMatrix,
    schedule: Iterable[float],
    min_pts: int = DEFAULT_MIN_PTS,
    family: str = "",
) -> ClusterSet:
    """Run DBSCAN per eps round over the previous round's noise points.

    Round 1 clusters the full matrix; every later round clusters only the
    positions still noise, on the rows and columns of the same matrix. Each
    round's clusters come in label order with members in matrix order. Samples
    left as noise after the final round become singleton groups.
    """
    eps_values = validate_eps_schedule(schedule)
    min_pts = check_integer("min_pts", min_pts, 1)
    ids = matrix.sample_ids
    groups: list[Cluster] = []
    rest = np.arange(len(ids))  # positions still noise, ascending
    for round_index, eps in enumerate(eps_values, start=1):
        if len(rest) == 0:
            break
        labels = _dbscan(matrix.values[np.ix_(rest, rest)], eps, min_pts)
        for cluster_id in range(int(labels.max()) + 1):
            members = rest[labels == cluster_id].tolist()
            groups.append(Cluster(tuple(ids[i] for i in members), round_index, eps))
        rest = rest[labels == NOISE]
    for i in rest.tolist():
        groups.append(Cluster((ids[i],), None, None))
    return ClusterSet(family, tuple(groups))


def cluster_report_csv(
    matrices: Mapping[str, DistanceMatrix],
    schedule: Iterable[float],
    min_pts: int = DEFAULT_MIN_PTS,
) -> str:
    """CSV of each family's counts under each eps value alone, then the whole ``schedule``."""
    eps_values = validate_eps_schedule(schedule)
    settings = [(f"{eps:g}", (eps,)) for eps in eps_values] + [("proposed", eps_values)]
    rows = [("eps_setting", "family", "samples", "clusters", "unclustered")]
    for setting, rounds in settings:
        for family in sorted(matrices):
            found = multi_round_cluster(matrices[family], rounds, min_pts, family=family)
            rows.append((setting, family, found.sample_count, found.cluster_count,
                         found.unclustered_count))
    return csv_text(rows)
