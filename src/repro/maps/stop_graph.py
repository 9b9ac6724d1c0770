"""UGV stop graph construction and structural correlation (Section III/IV-B).

Virtual stop nodes are placed at regular intervals (the paper uses 100 m)
along every road, and connected according to road connectivity.  The class
also implements the thresholded shortest-path structural correlation
``s(b, b')`` of Eqns. (19)-(20) that MC-GCN consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .campus import CampusMap

__all__ = ["StopGraph", "build_stop_graph"]


@dataclass
class StopGraph:
    """The stop network ``G = (B, E)``.

    Attributes
    ----------
    positions:
        ``(B, 2)`` stop coordinates in metres.
    graph:
        Undirected networkx graph on node ids ``0..B-1`` with ``length``
        edge attributes (metres).
    """

    positions: np.ndarray
    graph: nx.Graph
    _adj: np.ndarray | None = field(default=None, repr=False)
    _hops: np.ndarray | None = field(default=None, repr=False)
    _metres: np.ndarray | None = field(default=None, repr=False)

    @property
    def num_stops(self) -> int:
        return len(self.positions)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense binary adjacency (cached)."""
        if self._adj is None:
            self._adj = nx.to_numpy_array(self.graph, nodelist=range(self.num_stops), weight=None)
        return self._adj

    def hop_distances(self) -> np.ndarray:
        """All-pairs shortest-path distances in hops (cached)."""
        if self._hops is None:
            self._hops = _all_pairs_dijkstra(
                self.num_stops, [(u, v, 1.0) for u, v in self.graph.edges()])
        return self._hops

    def metre_distances(self) -> np.ndarray:
        """All-pairs shortest-path distances in metres along roads (cached)."""
        if self._metres is None:
            self._metres = _all_pairs_dijkstra(
                self.num_stops, [(u, v, data.get("length", 1.0))
                                 for u, v, data in self.graph.edges(data=True)])
        return self._metres

    def structural_correlation(self, q: float, weighted: bool = False) -> np.ndarray:
        """Eqns. (19)-(20): ``s = 1 / (d_sp^q + 1)`` with threshold ``q``.

        Distances beyond ``q`` are treated as infinite, giving zero
        correlation; the self-correlation is exactly 1.  ``weighted``
        selects metre distances instead of hop counts.
        """
        if q <= 0:
            raise ValueError("threshold q must be positive")
        dist = self.metre_distances() if weighted else self.hop_distances()
        capped = np.where(dist <= q, dist, np.inf)
        with np.errstate(divide="ignore"):
            return np.where(np.isinf(capped), 0.0, 1.0 / (capped + 1.0))

    def nearest_stop(self, point) -> int:
        """Index of the stop closest to ``point`` (Euclidean)."""
        deltas = self.positions - np.asarray(point, dtype=float)
        return int(np.argmin(np.hypot(deltas[:, 0], deltas[:, 1])))

    def neighbors(self, stop: int) -> list[int]:
        return sorted(self.graph.neighbors(stop))

    def stops_within_metres(self, stop: int, budget: float) -> list[int]:
        """Stops reachable from ``stop`` within ``budget`` road-metres."""
        row = self.metre_distances()[stop]
        return [int(i) for i in np.nonzero(row <= budget)[0]]

    def path(self, a: int, b: int) -> list[int]:
        """Shortest road path between two stops."""
        return nx.shortest_path(self.graph, a, b, weight="length")

    def path_length(self, a: int, b: int) -> float:
        return float(self.metre_distances()[a, b])


def _all_pairs_dijkstra(num_nodes: int,
                        edges: list[tuple[int, int, float]]) -> np.ndarray:
    """``(n, n)`` shortest-path lengths over undirected weighted ``edges``.

    Row ``s`` runs Dijkstra from source ``s``, and all rows step together:
    each step settles, in every row, the unsettled node nearest the
    source, then relaxes that node's neighbour list (padded to the
    largest degree with infinite weights).  A distance is the sum
    ``d(u) + w(u, v)`` taken along the path from the source, as
    ``scipy.sparse.csgraph.dijkstra`` sums it, so the result is its bytes.
    Unreachable pairs are ``inf``.  (A zero-length edge joins its ends at
    distance 0; scipy, given a dense matrix, read it as no edge.)
    """
    dist = np.full((num_nodes, num_nodes), np.inf)
    np.fill_diagonal(dist, 0.0)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(num_nodes)]
    for u, v, w in edges:
        adjacency[u].append((v, float(w)))
        adjacency[v].append((u, float(w)))
    degree = max([1] + [len(row) for row in adjacency])
    # Padding points a node at itself: never closer than it already is.
    neighbours = np.repeat(np.arange(num_nodes)[:, None], degree, axis=1)
    weights = np.full(neighbours.shape, np.inf)
    for u, row in enumerate(adjacency):
        for k, (v, w) in enumerate(row):
            neighbours[u, k], weights[u, k] = v, w
    # Tentative distances of the still-unsettled nodes; inf once settled.
    tentative = dist.copy()
    sources = np.arange(num_nodes)
    for _ in range(num_nodes):
        nearest = np.argmin(tentative, axis=1)
        reach = tentative[sources, nearest]
        if not np.isfinite(reach).any():
            break
        tentative[sources, nearest] = np.inf
        targets = neighbours[nearest]
        offered = reach[:, None] + weights[nearest]
        rows, cols = np.nonzero(offered < dist[sources[:, None], targets])
        hit, shorter = targets[rows, cols], offered[rows, cols]
        dist[rows, hit] = shorter
        tentative[rows, hit] = shorter
    return dist


def build_stop_graph(campus: CampusMap, interval: float = 100.0) -> StopGraph:
    """Place stops every ``interval`` metres along each road edge.

    Road junctions always become stops; interior stops subdivide each edge
    so consecutive stops are at most ``interval`` apart, and are chained
    with edges matching road connectivity.
    """
    if interval <= 0:
        raise ValueError("stop interval must be positive")
    stop_graph = nx.Graph()
    positions: list[np.ndarray] = []
    junction_stop: dict = {}

    def add_stop(pos: np.ndarray) -> int:
        idx = len(positions)
        positions.append(np.asarray(pos, dtype=float))
        stop_graph.add_node(idx)
        return idx

    for node in campus.roads.nodes:
        junction_stop[node] = add_stop(np.asarray(campus.roads.nodes[node]["pos"]))

    for u, v, data in campus.roads.edges(data=True):
        a = np.asarray(campus.roads.nodes[u]["pos"])
        b = np.asarray(campus.roads.nodes[v]["pos"])
        length = data.get("length", float(np.linalg.norm(b - a)))
        segments = max(1, int(np.ceil(length / interval)))
        chain = [junction_stop[u]]
        for k in range(1, segments):
            frac = k / segments
            chain.append(add_stop(a + frac * (b - a)))
        chain.append(junction_stop[v])
        for s0, s1 in zip(chain[:-1], chain[1:]):
            seg_len = float(np.linalg.norm(positions[s1] - positions[s0]))
            stop_graph.add_edge(s0, s1, length=seg_len)

    return StopGraph(np.asarray(positions), stop_graph)
