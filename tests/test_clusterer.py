import numpy as np
import pytest

from opsig.clusterer import (
    NOISE,
    Cluster,
    ClusterSet,
    DistanceMatrix,
    cluster_report_csv,
    compute_distance_matrix,
    dbscan,
    multi_round_cluster,
    submatrix,
    validate_eps_schedule,
)
from opsig.errors import UnknownSampleError, VocabularyMismatchError
from opsig.opgraph import graph_distance

from helpers import (
    adjusted_rand_index,
    make_vocab,
    random_distance_matrix,
    random_graph,
    reference_dbscan,
    two_scale_matrix,
)


class TestComputeDistanceMatrix:
    def test_single_graph(self):
        rng = np.random.default_rng(0)
        graph = random_graph(make_vocab(4), rng)
        matrix = compute_distance_matrix([("only", graph)])
        assert matrix.sample_ids == ("only",)
        assert matrix.values.tolist() == [[0.0]]

    def test_identical_graphs(self):
        rng = np.random.default_rng(1)
        graph = random_graph(make_vocab(4), rng)
        matrix = compute_distance_matrix([("a", graph), ("b", graph)])
        assert matrix.values.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(2)
        vocab = make_vocab(9)
        graphs = [(f"g{i}", random_graph(vocab, rng)) for i in range(6)]
        matrix = compute_distance_matrix(graphs)
        for i in range(6):
            for j in range(6):
                expected = graph_distance(graphs[i][1], graphs[j][1]).distance
                assert matrix.values[i, j] == pytest.approx(expected, abs=1e-15)

    def test_vocabulary_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        a = random_graph(make_vocab(4), rng)
        b = random_graph(make_vocab(5), rng)
        with pytest.raises(VocabularyMismatchError):
            compute_distance_matrix([("a", a), ("b", b)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_distance_matrix([])


class TestDistanceMatrixValidation:
    def test_asymmetry_rejected(self):
        values = np.array([[0.0, 0.2], [0.3, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "b"), values)

    def test_nonzero_diagonal_rejected(self):
        values = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "b"), values)

    def test_out_of_range_rejected(self):
        values = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "b"), values)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            DistanceMatrix(("a", "a", "b"), np.zeros((3, 3)))


class TestSubmatrix:
    def _matrix(self):
        values = np.array([
            [0.0, 0.1, 0.2],
            [0.1, 0.0, 0.3],
            [0.2, 0.3, 0.0],
        ])
        return DistanceMatrix(("a", "b", "c"), values)

    def test_keep_all_is_identity(self):
        matrix = self._matrix()
        result = submatrix(matrix, ["a", "b", "c"])
        assert result.sample_ids == matrix.sample_ids
        np.testing.assert_array_equal(result.values, matrix.values)

    def test_keep_one(self):
        result = submatrix(self._matrix(), ["b"])
        assert result.sample_ids == ("b",)
        assert result.values.tolist() == [[0.0]]

    def test_restriction_preserves_values_and_order(self):
        result = submatrix(self._matrix(), ["c", "a"])
        assert result.sample_ids == ("a", "c")
        assert result.values[0, 1] == 0.2

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownSampleError):
            submatrix(self._matrix(), ["a", "zzz"])


class TestDbscan:
    def test_fully_dense_single_cluster(self):
        n = 5
        matrix = DistanceMatrix(tuple(f"s{i}" for i in range(n)), np.zeros((n, n)))
        labels = dbscan(matrix, eps=0.5, min_pts=2)
        assert labels.tolist() == [0] * n

    def test_fully_isolated_all_noise(self):
        n = 4
        values = np.ones((n, n)) - np.eye(n)
        matrix = DistanceMatrix(tuple(f"s{i}" for i in range(n)), values)
        labels = dbscan(matrix, eps=0.1, min_pts=2)
        assert labels.tolist() == [NOISE] * n

    def test_planted_blobs_match_reference(self):
        rng = np.random.default_rng(21)
        blob = np.repeat([0, 1], 8)
        n = len(blob)
        values = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                d = rng.uniform(0.001, 0.005) if blob[i] == blob[j] else rng.uniform(0.5, 0.9)
                values[i, j] = values[j, i] = d
        matrix = DistanceMatrix(tuple(f"s{i}" for i in range(n)), values)
        labels = dbscan(matrix, eps=0.01, min_pts=3)
        assert labels.tolist() == reference_dbscan(values, 0.01, 3)
        assert adjusted_rand_index(labels.tolist(), blob.tolist()) == 1.0

    def test_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            matrix = random_distance_matrix(rng, int(rng.integers(2, 30)))
            eps = float(rng.uniform(0.02, 0.8))
            min_pts = int(rng.integers(1, 6))
            ours = dbscan(matrix, eps, min_pts).tolist()
            assert ours == reference_dbscan(matrix.values, eps, min_pts)

    def test_parameter_validation(self):
        matrix = DistanceMatrix(("a",), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            dbscan(matrix, eps=0.0, min_pts=2)
        with pytest.raises(ValueError):
            dbscan(matrix, eps=0.5, min_pts=0)
        with pytest.raises(ValueError, match="eps must be positive"):
            dbscan(matrix, eps=float("nan"), min_pts=2)  # every point would be noise


class TestValidateEpsSchedule:
    def test_accepts_ascending(self):
        assert validate_eps_schedule([0.01, 0.1]) == (0.01, 0.1)

    def test_empty_allowed(self):
        assert validate_eps_schedule([]) == ()

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            validate_eps_schedule([0.1, 0.1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_eps_schedule([0.5, 1.5])


def reference_multi_round(matrix, schedule, min_pts, family=""):
    """Round by round: ``reference_dbscan`` on the values restricted to the last round's noise."""
    ids = matrix.sample_ids
    rest = list(range(len(ids)))
    groups = []
    for round_index, eps in enumerate(schedule, start=1):
        if not rest:
            break
        values = np.array([[matrix.values[i][j] for j in rest] for i in rest])
        labels = reference_dbscan(values, eps, min_pts)
        for cluster in range(max(labels) + 1):
            members = tuple(ids[p] for p, label in zip(rest, labels) if label == cluster)
            groups.append(Cluster(members, round_index, eps))
        rest = [p for p, label in zip(rest, labels) if label == NOISE]
    groups += [Cluster((ids[p],), None, None) for p in rest]
    return ClusterSet(family, tuple(groups))


class TestMultiRoundCluster:
    def test_matches_round_by_round_reference(self):
        rng = np.random.default_rng(30)
        for trial in range(120):
            if trial % 2:
                matrix, _ = two_scale_matrix(rng, int(rng.integers(1, 7)))
                low, high = 0.001, 0.2
            else:
                matrix = random_distance_matrix(rng, int(rng.integers(2, 30)))
                low, high = 0.02, 0.4
            rounds = int(rng.integers(1, 5))
            schedule = tuple(sorted(set(rng.uniform(low, high, size=rounds).tolist())))
            min_pts = int(rng.integers(1, 6))
            ours = multi_round_cluster(matrix, schedule, min_pts, family="f")
            assert ours == reference_multi_round(matrix, schedule, min_pts, family="f")

    @pytest.mark.parametrize("n, schedule", [(0, (0.1,)), (1, (0.1, 0.5)), (6, ())])
    def test_edge_cases_match_reference(self, n, schedule):
        matrix = random_distance_matrix(np.random.default_rng(31), n)
        for min_pts in (1, 2):
            ours = multi_round_cluster(matrix, schedule, min_pts)
            assert ours == reference_multi_round(matrix, schedule, min_pts)

    @pytest.mark.parametrize("n, schedule", [(0, (0.1,)), (3, ()), (3, (0.1,))])
    def test_min_pts_checked_for_every_input(self, n, schedule):
        matrix = random_distance_matrix(np.random.default_rng(32), n)
        with pytest.raises(ValueError, match="min_pts"):
            multi_round_cluster(matrix, schedule, min_pts=0)

    def test_two_scale_recovery(self):
        rng = np.random.default_rng(23)
        matrix, plant = two_scale_matrix(rng)
        result = multi_round_cluster(matrix, (0.01, 0.1), min_pts=3, family="fam")
        membership = result.membership()
        ours = [membership[sid] for sid in matrix.sample_ids]
        assert adjusted_rand_index(ours, plant) == 1.0
        tags = sorted(g.round_tag for g in result.groups)
        assert tags == ["r1", "r1", "r2", "r2"]

    def test_empty_schedule_all_singletons(self):
        rng = np.random.default_rng(24)
        matrix = random_distance_matrix(rng, 5)
        result = multi_round_cluster(matrix, (), min_pts=3)
        assert result.cluster_count == 0
        assert result.unclustered_count == 5
        assert all(g.is_singleton_leftover for g in result.groups)

    def test_fewer_points_than_min_pts_stay_singletons(self):
        values = np.array([[0.0, 0.9], [0.9, 0.0]])
        matrix = DistanceMatrix(("a", "b"), values)
        result = multi_round_cluster(matrix, (0.01, 0.1), min_pts=3)
        assert result.cluster_count == 0
        assert result.unclustered_count == 2

    def test_partition_property(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            matrix = random_distance_matrix(rng, int(rng.integers(1, 25)))
            schedule = sorted(set(rng.uniform(0.05, 0.9, size=int(rng.integers(1, 4)))))
            result = multi_round_cluster(matrix, schedule, min_pts=int(rng.integers(1, 5)))
            seen = [sid for group in result.groups for sid in group.member_ids]
            assert sorted(seen) == sorted(matrix.sample_ids)
            assert len(seen) == len(set(seen))

    def test_round_monotonicity_and_tags(self):
        rng = np.random.default_rng(26)
        matrix, _ = two_scale_matrix(rng)
        result = multi_round_cluster(matrix, (0.01, 0.1), min_pts=3)
        round_of = {}
        for group in result.groups:
            for sid in group.member_ids:
                assert sid not in round_of
                round_of[sid] = group.round_index
        assert set(round_of) == set(matrix.sample_ids)

    def test_deterministic(self):
        rng = np.random.default_rng(27)
        matrix = random_distance_matrix(rng, 20)
        a = multi_round_cluster(matrix, (0.1, 0.3), min_pts=3, family="f")
        b = multi_round_cluster(matrix, (0.1, 0.3), min_pts=3, family="f")
        assert a == b

    def test_core_point_soundness(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            matrix = random_distance_matrix(rng, 30)
            min_pts = 3
            result = multi_round_cluster(matrix, (0.1, 0.4), min_pts=min_pts)
            index = {sid: i for i, sid in enumerate(matrix.sample_ids)}
            for group in result.groups:
                if group.is_singleton_leftover:
                    continue
                members = [index[sid] for sid in group.member_ids]
                has_core = any(
                    sum(matrix.values[m, o] <= group.eps for o in members) >= min_pts
                    for m in members
                )
                assert has_core


class TestClusterReport:
    @staticmethod
    def _blocks(*sizes):
        """Blocks of samples at distance 0 within a block and 1 across blocks."""
        block = np.repeat(np.arange(len(sizes)), sizes)
        values = (block[:, None] != block[None, :]).astype(float)
        return DistanceMatrix(tuple(f"s{i}" for i in range(len(block))), values)

    def test_row_arithmetic(self):
        # two clusters of 5 and 3, and two singletons
        text = cluster_report_csv({"fam": self._blocks(5, 3, 1, 1)}, (0.1,), 3)
        assert text.splitlines()[1:] == ["0.1,fam,10,2,2", "proposed,fam,10,2,2"]

    def test_family_with_csv_syntax_quoted(self):
        text = cluster_report_csv({"fam,a": self._blocks(2, 1)}, (0.01,), 2)
        assert text.splitlines()[1:] == ['0.01,"fam,a",3,1,1', 'proposed,"fam,a",3,1,1']

    def test_all_singletons(self):
        text = cluster_report_csv({"fam": self._blocks(1, 1, 1, 1)}, (0.1,), 3)
        assert text.splitlines()[1:] == ["0.1,fam,4,0,4", "proposed,fam,4,0,4"]

    def test_format_header(self):
        text = cluster_report_csv({"fam": self._blocks(2, 1)}, (0.01,), 2)
        lines = text.splitlines()
        assert lines[0] == "eps_setting,family,samples,clusters,unclustered"
        assert lines[1] == "0.01,fam,3,1,1"
        assert text.endswith("\n")

    def test_eps_setting_comparison_settings(self):
        rng = np.random.default_rng(29)
        matrix, _ = two_scale_matrix(rng)
        text = cluster_report_csv({"fam": matrix}, (0.01, 0.1), 3)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [row[0] for row in rows] == ["0.01", "0.1", "proposed"]
        by_setting = {row[0]: row for row in rows}
        # the two loose blobs are invisible at eps 0.01 but found by the schedule
        assert by_setting["0.01"][3:] == ["2", "12"]
        assert by_setting["proposed"][3:] == ["4", "0"]
