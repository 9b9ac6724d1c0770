"""Synthetic campus reconstructions of KAIST and UCLA.

The paper extracts both campuses from OpenStreetMap; those extracts are not
redistributable here, so we generate deterministic synthetic campuses that
match every statistic the paper publishes and relies on:

* KAIST — 1539.63 m (E-W) x 1433.37 m (N-S), 85 buildings, 138 sensors,
  a relatively simple (grid-like) road network.
* UCLA — 1675.36 m (E-W) x 1737.15 m (N-S), 163 buildings, 236 sensors,
  an irregular road network whose east and west halves connect through a
  thin corridor, with a sparse "lawn" centre holding little data.

The experiments' qualitative results depend on exactly these properties
(workzone size, sensor count and spatial unevenness, road-network
complexity), which is why this substitution preserves behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from .geometry import Polygon, rectangle, regular_polygon, segment_distances
from .roads import grid_network, irregular_network

__all__ = ["CampusMap", "build_kaist", "build_ucla", "build_campus",
           "random_campus", "CAMPUS_BUILDERS"]

# Geometry published in Section V-A of the paper (metres).
KAIST_WIDTH, KAIST_HEIGHT = 1539.63, 1433.37
UCLA_WIDTH, UCLA_HEIGHT = 1675.36, 1737.15
KAIST_BUILDINGS, KAIST_SENSORS = 85, 138
UCLA_BUILDINGS, UCLA_SENSORS = 163, 236


@dataclass
class CampusMap:
    """Immutable description of a campus workzone.

    Attributes
    ----------
    name:
        Campus identifier (``"kaist"`` / ``"ucla"`` / custom).
    width, height:
        Extent in metres; the workzone is ``[0, width] x [0, height]``.
    roads:
        Undirected road graph; nodes carry ``pos`` attributes.
    buildings:
        Building footprints — obstacles UAVs cannot fly over.
    sensor_positions:
        ``(P, 2)`` array of sensor coordinates (on building walls).
    sensor_buildings:
        For each sensor, the index of its host building.
    """

    name: str
    width: float
    height: float
    roads: nx.Graph
    buildings: list[Polygon]
    sensor_positions: np.ndarray
    sensor_buildings: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    _boxes: np.ndarray = field(init=False, repr=False, compare=False)
    _segments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # (n_buildings, 4) [min_x, min_y, max_x, max_y] footprint boxes for
        # segment_hits_building's one-pass reject.
        self._boxes = np.array([[b.bbox.min_x, b.bbox.min_y, b.bbox.max_x,
                                 b.bbox.max_y] for b in self.buildings],
                               dtype=float).reshape(-1, 4)
        # (n_edges, 4) [ax, ay, bx, by] road segments for distance_to_road.
        self._segments = _road_segments(self.roads)

    @property
    def num_sensors(self) -> int:
        return len(self.sensor_positions)

    @property
    def num_buildings(self) -> int:
        return len(self.buildings)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.width / 2.0, self.height / 2.0])

    def point_in_building(self, point) -> bool:
        """Whether ``point`` is inside any building footprint."""
        return any(b.contains(point) for b in self.buildings)

    def segment_hits_building(self, a, b) -> bool:
        """Whether the straight path a->b crosses any building.

        Applies :meth:`Polygon.intersects_segment`'s cheap reject (neither
        endpoint in the 1e-9-expanded box, segment box clear of the box)
        to every building in one numpy pass; only the survivors run the
        exact test, so the answer is the per-polygon loop's.
        """
        ax, ay, bx, by = float(a[0]), float(a[1]), float(b[0]), float(b[1])
        lo_x, lo_y, hi_x, hi_y = self._boxes.T
        ex_lo_x, ex_lo_y = lo_x - 1e-9, lo_y - 1e-9
        ex_hi_x, ex_hi_y = hi_x + 1e-9, hi_y + 1e-9
        a_in = (ex_lo_x <= ax) & (ax <= ex_hi_x) & (ex_lo_y <= ay) & (ay <= ex_hi_y)
        b_in = (ex_lo_x <= bx) & (bx <= ex_hi_x) & (ex_lo_y <= by) & (by <= ex_hi_y)
        apart = ((max(ax, bx) < lo_x) | (min(ax, bx) > hi_x)
                 | (max(ay, by) < lo_y) | (min(ay, by) > hi_y))
        survivors = np.flatnonzero(a_in | b_in | ~apart)
        return any(self.buildings[i].intersects_segment(a, b) for i in survivors)

    def road_edges(self):
        """Yield road edges as coordinate pairs."""
        for segment in self._segments:
            yield segment[:2], segment[2:]

    def distance_to_road(self, point) -> float:
        """Distance from ``point`` to the nearest road segment."""
        return float(segment_distances(point, self._segments).min())


def _road_segments(roads: nx.Graph) -> np.ndarray:
    """``(E, 4)`` ``[ax, ay, bx, by]`` rows, one per road edge in edge order."""
    return np.array([(*roads.nodes[u]["pos"], *roads.nodes[v]["pos"])
                     for u, v in roads.edges()], dtype=float).reshape(-1, 4)


def _place_buildings(rng: np.random.Generator, count: int, width: float, height: float,
                     roads: nx.Graph,
                     keep_region=None, min_side: float = 25.0, max_side: float = 70.0,
                     road_margin: float = 18.0, max_attempts: int = 20000) -> list[Polygon]:
    """Scatter non-overlapping building footprints off the roads."""
    road_segments = _road_segments(roads)
    buildings: list[Polygon] = []
    centers: list[np.ndarray] = []
    attempts = 0
    while len(buildings) < count and attempts < max_attempts:
        attempts += 1
        cx = rng.uniform(0.03 * width, 0.97 * width)
        cy = rng.uniform(0.03 * height, 0.97 * height)
        if keep_region is not None and not keep_region(cx, cy):
            continue
        # Keep footprints clear of roads so UGVs never drive "through" one.
        near_road = segment_distances((cx, cy), road_segments).min()
        if near_road < road_margin + max_side / 2.0:
            continue
        size = rng.uniform(min_side, max_side)
        radius = size / 2.0
        if centers:
            gaps = np.hypot(*(np.asarray(centers) - np.array([cx, cy])).T)
            if gaps.min() < size + min_side:
                continue
        if rng.random() < 0.8:
            footprint = rectangle(cx, cy, size, rng.uniform(min_side, max_side),
                                  angle=rng.uniform(0, np.pi / 2))
        else:
            footprint = regular_polygon(cx, cy, radius, sides=int(rng.integers(5, 8)),
                                        phase=rng.uniform(0, np.pi))
        buildings.append(footprint)
        centers.append(np.array([cx, cy]))
    return buildings


def _place_sensors(rng: np.random.Generator, buildings: list[Polygon],
                   count: int) -> tuple[np.ndarray, np.ndarray]:
    """Attach sensors to building perimeters, at least one per chosen building.

    Sensor count exceeds building count in both campuses, so we first give
    every building a chance proportional to its area, then round-robin the
    remainder — mirroring the paper's "sensors on buildings" placement.
    """
    if not buildings:
        raise ValueError("cannot place sensors without buildings")
    areas = np.array([b.area for b in buildings])
    probs = areas / areas.sum()
    hosts = rng.choice(len(buildings), size=count, p=probs)
    positions = []
    for host in hosts:
        positions.append(buildings[host].perimeter_points(1, rng)[0])
    return np.asarray(positions), hosts.astype(int)


def build_kaist(seed: int = 7) -> CampusMap:
    """Deterministic synthetic KAIST campus (simple grid-like roads)."""
    rng = np.random.default_rng(seed)
    roads = grid_network(KAIST_WIDTH, KAIST_HEIGHT, rows=6, cols=6,
                         jitter=30.0, rng=rng, drop_prob=0.08)
    buildings = _place_buildings(rng, KAIST_BUILDINGS, KAIST_WIDTH, KAIST_HEIGHT, roads,
                                 min_side=20.0, max_side=55.0, road_margin=12.0)
    sensors, hosts = _place_sensors(rng, buildings, KAIST_SENSORS)
    return CampusMap("kaist", KAIST_WIDTH, KAIST_HEIGHT, roads, buildings, sensors, hosts)


def build_ucla(seed: int = 11) -> CampusMap:
    """Deterministic synthetic UCLA campus.

    Irregular junction placement, a sparse central lawn, and a thin
    east-west connecting corridor — the three features Section V of the
    paper attributes UCLA's difficulty to.
    """
    rng = np.random.default_rng(seed)
    width, height = UCLA_WIDTH, UCLA_HEIGHT
    lawn_center = np.array([width * 0.5, height * 0.52])
    lawn_radius = 0.16 * min(width, height)
    band_lo, band_hi = width * 0.42, width * 0.58
    corridor_y = height * 0.50
    corridor_half = height * 0.045

    def keep_region(x: float, y: float) -> bool:
        # The lawn centre has no junctions; the central band only admits
        # the thin corridor.
        if np.hypot(x - lawn_center[0], y - lawn_center[1]) < lawn_radius:
            return False
        if band_lo < x < band_hi and abs(y - corridor_y) > corridor_half:
            return False
        return True

    corridor = [((band_lo - 20.0, corridor_y), (band_hi + 20.0, corridor_y))]
    roads = irregular_network(width, height, junctions=60, rng=rng,
                              connect_radius=310.0, keep_region=keep_region,
                              corridor_edges=corridor)

    def building_region(x: float, y: float) -> bool:
        # Buildings (and hence data) avoid the lawn and the thin corridor,
        # creating the uneven east/west data distribution.
        if np.hypot(x - lawn_center[0], y - lawn_center[1]) < lawn_radius * 1.15:
            return False
        if band_lo < x < band_hi:
            return False
        return True

    buildings = _place_buildings(rng, UCLA_BUILDINGS, width, height, roads,
                                 keep_region=building_region,
                                 min_side=18.0, max_side=48.0, road_margin=10.0)
    sensors, hosts = _place_sensors(rng, buildings, UCLA_SENSORS)
    return CampusMap("ucla", width, height, roads, buildings, sensors, hosts)


def build_campus(name: str, seed: int | None = None, scale: float = 1.0) -> CampusMap:
    """Build a campus by name.  ``scale`` < 1 shrinks the workzone for tests.

    ``scale`` proportionally reduces extent, building count and sensor
    count, producing a faithful miniature for smoke-scale experiments.
    """
    key = name.lower()
    if key not in CAMPUS_BUILDERS:
        raise KeyError(f"unknown campus {name!r}; choose from {sorted(CAMPUS_BUILDERS)}")
    if scale == 1.0:
        return CAMPUS_BUILDERS[key](seed) if seed is not None else CAMPUS_BUILDERS[key]()
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    full = CAMPUS_BUILDERS[key](seed) if seed is not None else CAMPUS_BUILDERS[key]()
    return _scaled_campus(full, scale, seed if seed is not None else 0)


def _scaled_campus(campus: CampusMap, scale: float, seed: int) -> CampusMap:
    """Produce a miniature campus preserving structure statistics."""
    rng = np.random.default_rng(seed + 1000)
    width, height = campus.width * scale, campus.height * scale
    if campus.name == "kaist":
        roads = grid_network(width, height, rows=4, cols=4, jitter=10.0, rng=rng, drop_prob=0.05)
    else:
        band_lo, band_hi = width * 0.42, width * 0.58
        corridor_y = height * 0.5

        def keep(x: float, y: float) -> bool:
            return not (band_lo < x < band_hi and abs(y - corridor_y) > height * 0.08)

        roads = irregular_network(width, height, junctions=18, rng=rng,
                                  connect_radius=0.35 * max(width, height), keep_region=keep,
                                  corridor_edges=[((band_lo - 5, corridor_y), (band_hi + 5, corridor_y))])
    n_buildings = max(4, int(campus.num_buildings * scale * scale))
    n_sensors = max(6, int(campus.num_sensors * scale * scale))
    buildings = _place_buildings(rng, n_buildings, width, height, roads,
                                 min_side=12.0, max_side=30.0, road_margin=8.0)
    sensors, hosts = _place_sensors(rng, buildings, n_sensors)
    return CampusMap(campus.name, width, height, roads, buildings, sensors, hosts)


def random_campus(name: str = "custom", width: float = 800.0, height: float = 800.0,
                  buildings: int = 20, sensors: int = 30, seed: int = 0,
                  road_style: str = "grid", junctions: int = 24) -> CampusMap:
    """Generate a custom synthetic campus for new scenarios.

    Parameters
    ----------
    road_style:
        ``"grid"`` for a regular KAIST-like net, ``"irregular"`` for a
        UCLA-like random geometric net.
    junctions:
        Junction count for irregular nets; grids derive rows/cols from it.

    The result satisfies the same invariants as the paper campuses:
    connected roads, buildings clear of roads, sensors on building walls.
    """
    if width <= 0 or height <= 0:
        raise ValueError("extent must be positive")
    if buildings < 1 or sensors < 1:
        raise ValueError("need at least one building and one sensor")
    rng = np.random.default_rng(seed)
    if road_style == "grid":
        side = max(2, int(np.sqrt(junctions)))
        roads = grid_network(width, height, rows=side, cols=side,
                             jitter=0.02 * min(width, height), rng=rng,
                             drop_prob=0.05)
    elif road_style == "irregular":
        roads = irregular_network(width, height, junctions=junctions, rng=rng,
                                  connect_radius=0.35 * max(width, height))
    else:
        raise ValueError(f"unknown road_style {road_style!r}")
    side_scale = min(width, height) / 400.0
    footprints = _place_buildings(rng, buildings, width, height, roads,
                                  min_side=max(10.0, 18.0 * side_scale),
                                  max_side=max(20.0, 45.0 * side_scale),
                                  road_margin=max(6.0, 10.0 * side_scale))
    if not footprints:
        raise RuntimeError("could not place any buildings; relax the parameters")
    sensor_positions, hosts = _place_sensors(rng, footprints, sensors)
    return CampusMap(name, float(width), float(height), roads, footprints,
                     sensor_positions, hosts)


CAMPUS_BUILDERS = {"kaist": build_kaist, "ucla": build_ucla}
