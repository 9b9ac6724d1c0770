"""Tests for stop-graph construction and the structural correlation."""

import networkx as nx
import numpy as np
import pytest

from repro.maps import build_stop_graph


class TestConstruction:
    def test_junctions_become_stops(self, toy_campus, toy_stops):
        # Every road junction position appears among the stops.
        for node in toy_campus.roads.nodes:
            pos = np.asarray(toy_campus.roads.nodes[node]["pos"])
            gaps = np.linalg.norm(toy_stops.positions - pos, axis=1)
            assert gaps.min() < 1e-9

    def test_spacing_bounded_by_interval(self, toy_stops):
        for a, b, data in toy_stops.graph.edges(data=True):
            assert data["length"] <= 75.0 + 1e-9

    def test_connected(self, toy_stops):
        assert nx.is_connected(toy_stops.graph)

    def test_positive_interval_required(self, toy_campus):
        with pytest.raises(ValueError):
            build_stop_graph(toy_campus, interval=0.0)

    def test_interval_controls_density(self, toy_campus):
        coarse = build_stop_graph(toy_campus, interval=150.0)
        fine = build_stop_graph(toy_campus, interval=50.0)
        assert fine.num_stops > coarse.num_stops

    def test_edge_lengths_match_positions(self, toy_stops):
        for a, b, data in toy_stops.graph.edges(data=True):
            gap = np.linalg.norm(toy_stops.positions[a] - toy_stops.positions[b])
            assert data["length"] == pytest.approx(gap)


class TestDistances:
    def test_hop_distances_zero_diagonal(self, toy_stops):
        hops = toy_stops.hop_distances()
        np.testing.assert_array_equal(np.diag(hops), np.zeros(toy_stops.num_stops))

    def test_hop_distances_symmetric(self, toy_stops):
        hops = toy_stops.hop_distances()
        np.testing.assert_allclose(hops, hops.T)

    def test_metre_distances_triangle_inequality_sample(self, toy_stops):
        metres = toy_stops.metre_distances()
        n = toy_stops.num_stops
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j, k = rng.integers(0, n, 3)
            assert metres[i, j] <= metres[i, k] + metres[k, j] + 1e-9

    def test_metre_distance_at_least_euclidean(self, toy_stops):
        metres = toy_stops.metre_distances()
        pos = toy_stops.positions
        n = toy_stops.num_stops
        for i in range(0, n, 3):
            for j in range(0, n, 3):
                direct = np.linalg.norm(pos[i] - pos[j])
                assert metres[i, j] >= direct - 1e-6

    def test_path_length_matches_matrix(self, toy_stops):
        metres = toy_stops.metre_distances()
        assert toy_stops.path_length(0, 5) == pytest.approx(metres[0, 5])

    def test_path_is_valid_walk(self, toy_stops):
        path = toy_stops.path(0, toy_stops.num_stops - 1)
        for a, b in zip(path[:-1], path[1:]):
            assert toy_stops.graph.has_edge(a, b)


class TestStructuralCorrelation:
    def test_self_correlation_is_one(self, toy_stops):
        s = toy_stops.structural_correlation(q=5)
        np.testing.assert_allclose(np.diag(s), np.ones(toy_stops.num_stops))

    def test_range(self, toy_stops):
        s = toy_stops.structural_correlation(q=5)
        assert (s >= 0).all() and (s <= 1).all()

    def test_threshold_zeroes_far_nodes(self, toy_stops):
        hops = toy_stops.hop_distances()
        s = toy_stops.structural_correlation(q=2)
        far = hops > 2
        assert (s[far] == 0).all()
        near = (hops <= 2)
        assert (s[near] > 0).all()

    def test_monotone_in_distance(self, toy_stops):
        # Closer stops (in hops) must have >= correlation.
        hops = toy_stops.hop_distances()
        s = toy_stops.structural_correlation(q=10)
        i = 0
        order = np.argsort(hops[i])
        values = s[i][order]
        finite = hops[i][order] <= 10
        assert (np.diff(values[finite]) <= 1e-12).all()

    def test_eqn20_formula(self, toy_stops):
        hops = toy_stops.hop_distances()
        s = toy_stops.structural_correlation(q=100)
        np.testing.assert_allclose(s, 1.0 / (hops + 1.0))

    def test_weighted_variant_uses_metres(self, toy_stops):
        metres = toy_stops.metre_distances()
        s = toy_stops.structural_correlation(q=1e9, weighted=True)
        np.testing.assert_allclose(s, 1.0 / (metres + 1.0))

    def test_invalid_threshold(self, toy_stops):
        with pytest.raises(ValueError):
            toy_stops.structural_correlation(q=0)


class TestQueries:
    def test_nearest_stop(self, toy_stops):
        target = toy_stops.positions[3] + np.array([1.0, -1.0])
        assert toy_stops.nearest_stop(target) == 3

    def test_neighbors_sorted(self, toy_stops):
        nbrs = toy_stops.neighbors(0)
        assert nbrs == sorted(nbrs)
        assert all(toy_stops.graph.has_edge(0, n) for n in nbrs)

    def test_stops_within_metres(self, toy_stops):
        reachable = toy_stops.stops_within_metres(0, 200.0)
        assert 0 in reachable
        metres = toy_stops.metre_distances()
        for idx in reachable:
            assert metres[0, idx] <= 200.0


def test_all_pairs_dijkstra_is_scipys_bytes_on_random_graphs():
    """Disconnected parts (inf), isolated nodes and equal-length paths
    included: the numpy all-pairs Dijkstra returns scipy's bytes."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix

    from repro.maps.stop_graph import _all_pairs_dijkstra

    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 40))
        graph = nx.gnp_random_graph(n, rng.uniform(0.02, 0.3),
                                    seed=int(rng.integers(2**31)))
        for u, v in graph.edges():
            graph[u][v]["length"] = float(rng.choice(
                [1.0, 100.0 / 3.0, rng.uniform(0.1, 300.0)]))
        got = _all_pairs_dijkstra(n, [(u, v, d["length"])
                                      for u, v, d in graph.edges(data=True)])
        dense = nx.to_numpy_array(graph, nodelist=range(n), weight="length")
        want = csgraph.dijkstra(csr_matrix(dense), directed=False)
        assert got.tobytes() == want.tobytes()
