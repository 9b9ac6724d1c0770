"""Golden worlds: the generated campuses and stop-graph distances.

The digests were taken from the per-edge campus builder and the stop
graph's scipy Dijkstra; the vectorised builder and the numpy all-pairs
Dijkstra must reproduce them bit for bit, since every seeded number
downstream (observations, rewards, ``records_digest``) is built on them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.maps import build_campus, build_stop_graph

# (campus, scale) -> sha256 of (building vertices, sensor positions,
# stop positions at the 100 m interval); B is the stop count.
GOLDEN = {
    ("kaist", 1.0): ("b02ae551aad3a2a1f296cf102ee8971f4bbb748dea07a6e0482751540351143e",
                     "cdcae8c8d42a69d2e902b24f02bd87016222369dd0a42fe4a9595320464a025c",
                     "6e3f4ac48e6536ccebb6b6b1bc6779ba83ba454abeab9e32982abcd27bca0564"),  # B=155
    ("kaist", 0.6): ("ceb474b15a34508773f19588bfa6fb99eed762b50c03fc70cdae2f6df84d0a25",
                     "bfba9c6895d06f100bccc69723cbbcf6ad68253fec0cb470dba5d54075053d4f",
                     "ae1404b5413a111da654e3d6a7a3b21a5318329ce4a698be731f29bbd0b0d27d"),  # B=60
    ("kaist", 0.3): ("3ca9475e225e441a6f98582cc2c98c0ab53d6dcd61ce7ece1a6ad557ab46ce6e",
                     "b5553c982a43d3489ec37c3bdc1e775dc886d3d00da47595baf4eafd7352fab0",
                     "3e780fa848fa2e6e92faa39df345246391d689a4747244cd425d71b0a95c04df"),  # B=38
    ("ucla", 1.0): ("7600a72f7eee1bf37e1147941e44cd8a49c1c0b5c373ba914f927b9c62c3dc41",
                    "c879d577a78ed3df7f7380c219d4e631ddcb17c5167633390dd0eaebee56c67f",
                    "c6e5df18f9c3130f5473ed1e11b8bb421f91177211ac6bbc918b9cc46da230da"),  # B=218
    ("ucla", 0.6): ("5fe7420931a15fe2ca2548d8fbd62133d9d5ed7060d8ae44e79c2188fe198302",
                    "7b76365878edbbf11b2ec0b2ef1aa63dfef67520a3ddc4fa755f6673f63aaf93",
                    "74e077921c5d30c4c888d0c596653b06e05429b4d9676f919ca4cd3a9e2ac11d"),  # B=104
    ("ucla", 0.3): ("bbdb359001c6d80d5bb8a1eae59d6a0c6cb193d86362e6689b5523d42fe73dd5",
                    "5bf143f65366318b2376b9fd26af529808fb92cfcfa9b926f0e8f65edc25f896",
                    "3f5cca828ec9da526b01540593b32f4d62aab9e92b20651b66a5752fff03e829"),  # B=47
}


def _sha(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array, dtype="<f8")
        digest.update(np.int64(array.size).tobytes())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}")
def world(request):
    campus = build_campus(request.param[0], scale=request.param[1])
    return request.param, campus, build_stop_graph(campus)


def test_campus_and_stops_match_golden_digests(world):
    key, campus, stops = world
    buildings, sensors, stop_positions = GOLDEN[key]
    assert _sha(b.vertices for b in campus.buildings) == buildings
    assert _sha([campus.sensor_positions]) == sensors
    assert _sha([stops.positions]) == stop_positions


@pytest.mark.parametrize("interval", [100.0, 50.0])
def test_distance_matrices_are_scipy_dijkstras_bytes(world, interval):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix
    import networkx as nx

    _, campus, stops = world
    if interval != 100.0:
        stops = build_stop_graph(campus, interval=interval)
    nodes = range(stops.num_stops)
    hops = csgraph.dijkstra(csr_matrix(nx.to_numpy_array(stops.graph, nodelist=nodes,
                                                         weight=None)),
                            unweighted=True, directed=False)
    metres = csgraph.dijkstra(csr_matrix(nx.to_numpy_array(stops.graph, nodelist=nodes,
                                                           weight="length")),
                              directed=False)
    for got, want in ((stops.hop_distances(), hops), (stops.metre_distances(), metres)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
