"""Shared fixtures: miniature campuses and a hand-built toy campus.

The toy campus is fully deterministic (explicit geometry), which the env
tests rely on for precise collision / collection assertions.  The
generated miniatures exercise the real builders.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.env import AirGroundEnv, EnvConfig
from repro.maps import CampusMap, Polygon, build_campus, build_stop_graph, rectangle
from repro.nn import Adam, Module


def to_float64(module: Module) -> Module:
    """Cast ``module`` in place to float64 and return it.

    Every parameter and every float array a (sub)module holds (MC-GCN's
    Laplacian, E-Comm's stop positions, ...) becomes float64, so the
    forwards, which cast their inputs to the parameters' dtype, run in
    float64 end to end.  Models train in float32; equivalence tests whose
    tolerances sit far below float32's rounding run on these copies.
    """
    for sub in module.modules():
        for name, value in vars(sub).items():
            if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                setattr(sub, name, value.astype(np.float64))
    for p in module.parameters():
        p.data = p.data.astype(np.float64)
    return module


def agent_to_float64(agent):
    """Cast an IPPO agent's two policies to float64 (see
    :func:`to_float64`) and give its trainer fresh float64 Adam state."""
    trainer = agent.trainer
    to_float64(agent.ugv_policy)
    to_float64(agent.uav_policy)
    trainer.ugv_optimizer = Adam(agent.ugv_policy.parameters(), lr=trainer.ppo.lr)
    trainer.uav_optimizer = Adam(agent.uav_policy.parameters(), lr=trainer.ppo.lr)
    return agent


def make_toy_campus() -> CampusMap:
    """400x400 m campus: 3x3 road grid, two buildings, four sensors.

    Layout (metres)::

        roads: grid junctions at x,y in {50, 200, 350}
        building A: 60x60 rectangle centred at (125, 125)
        building B: 60x60 rectangle centred at (275, 275)
        sensors: one on each wall midpoint facing a road
    """
    roads = nx.Graph()
    coords = [50.0, 200.0, 350.0]
    for r, y in enumerate(coords):
        for c, x in enumerate(coords):
            roads.add_node((r, c), pos=(x, y))
    for r in range(3):
        for c in range(3):
            if c + 1 < 3:
                roads.add_edge((r, c), (r, c + 1), length=150.0)
            if r + 1 < 3:
                roads.add_edge((r, c), (r + 1, c), length=150.0)
    roads = nx.convert_node_labels_to_integers(roads, ordering="sorted")

    building_a = rectangle(125.0, 125.0, 60.0, 60.0)
    building_b = rectangle(275.0, 275.0, 60.0, 60.0)
    sensors = np.array([
        [95.0, 125.0],   # west wall of A
        [125.0, 95.0],   # south wall of A
        [305.0, 275.0],  # east wall of B
        [275.0, 305.0],  # north wall of B
    ])
    hosts = np.array([0, 0, 1, 1])
    return CampusMap("toy", 400.0, 400.0, roads, [building_a, building_b], sensors, hosts)


@pytest.fixture(scope="session")
def toy_campus() -> CampusMap:
    return make_toy_campus()


@pytest.fixture(scope="session")
def toy_stops(toy_campus):
    return build_stop_graph(toy_campus, interval=75.0)


@pytest.fixture(scope="session")
def mini_kaist() -> CampusMap:
    return build_campus("kaist", scale=0.3)


@pytest.fixture(scope="session")
def mini_ucla() -> CampusMap:
    return build_campus("ucla", scale=0.3)


@pytest.fixture(scope="session")
def kaist_stops(mini_kaist):
    return build_stop_graph(mini_kaist)


@pytest.fixture()
def toy_env(toy_campus, toy_stops) -> AirGroundEnv:
    config = EnvConfig(num_ugvs=2, num_uavs_per_ugv=2, episode_len=12)
    return AirGroundEnv(toy_campus, config, stops=toy_stops, seed=7)


@pytest.fixture()
def kaist_env(mini_kaist, kaist_stops) -> AirGroundEnv:
    config = EnvConfig(num_ugvs=2, num_uavs_per_ugv=1, episode_len=10)
    return AirGroundEnv(mini_kaist, config, stops=kaist_stops, seed=5)
