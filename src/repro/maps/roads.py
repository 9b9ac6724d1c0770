"""Road-network construction.

A road network is an undirected ``networkx.Graph`` whose nodes carry a
``pos`` attribute (metres).  Two generators cover the paper's two regimes:

* :func:`grid_network` — a regular, mostly rectilinear net (KAIST's
  "relatively simpler road network").
* :func:`irregular_network` — jittered junctions, pruned edges and
  optional corridor constraints (UCLA's "more complicated" layout with a
  thin east-west connector).
"""

from __future__ import annotations

from typing import Callable, Sequence

import networkx as nx
import numpy as np

__all__ = ["grid_network", "irregular_network", "largest_component", "total_road_length"]


def _add_edge_with_length(graph: nx.Graph, a, b) -> None:
    pa = np.asarray(graph.nodes[a]["pos"])
    pb = np.asarray(graph.nodes[b]["pos"])
    graph.add_edge(a, b, length=float(np.linalg.norm(pa - pb)))


def grid_network(width: float, height: float, rows: int, cols: int,
                 jitter: float = 0.0, rng: np.random.Generator | None = None,
                 drop_prob: float = 0.0) -> nx.Graph:
    """Build a rows x cols junction grid spanning ``width`` x ``height``.

    ``jitter`` perturbs junction positions; ``drop_prob`` randomly removes
    edges (connectivity is restored to the largest component afterwards).
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid_network needs at least a 2x2 grid")
    rng = rng or np.random.default_rng(0)
    graph = nx.Graph()
    xs = np.linspace(0.05 * width, 0.95 * width, cols)
    ys = np.linspace(0.05 * height, 0.95 * height, rows)
    # One-off network construction at campus-build time; per-node rng
    # jitter draws are order-dependent, so the loop stays.
    for r in range(rows):
        for c in range(cols):
            x = xs[c] + (rng.uniform(-jitter, jitter) if jitter else 0.0)
            y = ys[r] + (rng.uniform(-jitter, jitter) if jitter else 0.0)
            graph.add_node((r, c), pos=(float(x), float(y)))
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols and (not drop_prob or rng.random() >= drop_prob):
                _add_edge_with_length(graph, (r, c), (r, c + 1))
            if r + 1 < rows and (not drop_prob or rng.random() >= drop_prob):
                _add_edge_with_length(graph, (r, c), (r + 1, c))
    return largest_component(graph)


def irregular_network(width: float, height: float, junctions: int,
                      rng: np.random.Generator, connect_radius: float,
                      keep_region: Callable[[float, float], bool] | None = None,
                      corridor_edges: Sequence[tuple[tuple[float, float], tuple[float, float]]] = ()) -> nx.Graph:
    """Random geometric road network.

    Junctions are sampled uniformly (optionally filtered by
    ``keep_region``), connected when within ``connect_radius``, then
    reduced to the largest connected component.  ``corridor_edges`` force
    specific long links (e.g. UCLA's thin east-west connector).
    """
    graph = nx.Graph()
    placed = 0
    attempts = 0
    while placed < junctions and attempts < junctions * 50:
        attempts += 1
        x = float(rng.uniform(0.05 * width, 0.95 * width))
        y = float(rng.uniform(0.05 * height, 0.95 * height))
        if keep_region is not None and not keep_region(x, y):
            continue
        graph.add_node(placed, pos=(x, y))
        placed += 1
    nodes = list(graph.nodes)
    # One-off gather at network-construction time.
    positions = np.array([graph.nodes[n]["pos"] for n in nodes])
    for i, a in enumerate(nodes):
        deltas = positions - positions[i]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        for j in np.nonzero((dists > 0) & (dists <= connect_radius))[0]:
            _add_edge_with_length(graph, a, nodes[int(j)])
    next_id = placed
    for (ax, ay), (bx, by) in corridor_edges:
        a_id, b_id = next_id, next_id + 1
        next_id += 2
        graph.add_node(a_id, pos=(float(ax), float(ay)))
        graph.add_node(b_id, pos=(float(bx), float(by)))
        _add_edge_with_length(graph, a_id, b_id)
        # Stitch corridor endpoints to their nearest organic junction.
        for endpoint in (a_id, b_id):
            pos = np.asarray(graph.nodes[endpoint]["pos"])
            dists = np.hypot(positions[:, 0] - pos[0], positions[:, 1] - pos[1])
            nearest = nodes[int(np.argmin(dists))]
            _add_edge_with_length(graph, endpoint, nearest)
    return largest_component(graph)


def largest_component(graph: nx.Graph) -> nx.Graph:
    """Return the subgraph on the largest connected component (relabelled 0..n-1)."""
    if graph.number_of_nodes() == 0:
        return graph
    component = max(nx.connected_components(graph), key=len)
    sub = graph.subgraph(component).copy()
    return nx.convert_node_labels_to_integers(sub, ordering="sorted")


def total_road_length(graph: nx.Graph) -> float:
    """Sum of edge lengths in metres."""
    return float(sum(data["length"] for _, _, data in graph.edges(data=True)))
