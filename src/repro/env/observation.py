"""Observation construction (Eqns. 9-11).

``ObservationBuilder`` precomputes everything static (obstacle raster,
sensor->stop coverage, stop reachability) and then stamps out per-agent
observations each timeslot:

* UGV — the masked stop-node tensor ``X̂_t^{B,u}`` plus all UGV positions
  ``X_t^U`` and a feasibility mask over the B+1 discrete actions
  (move-to-stop 0..B-1, release = B).
* UAV — an egocentric multi-channel grid crop of the global state
  (obstacles / remaining sensor data / other airborne UAVs) plus an
  auxiliary vector (normalised position, energy fraction, time left).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..maps.campus import CampusMap
from ..maps.stop_graph import StopGraph
from .config import EnvConfig
from .entities import UAV, UGV

__all__ = ["UGVObservation", "UAVObservation", "UGVObsArrays", "UAVObsArrays",
           "ObservationBuilder"]


@dataclass
class UGVObservation:
    """Observation ``o_t^u`` (Eqns. 9-10) for one UGV."""

    agent_index: int
    stop_features: np.ndarray  # (B, 3): x, y (normalised), masked d̂
    ugv_positions: np.ndarray  # (U, 2), normalised
    ugv_stops: np.ndarray  # (U,) current stop index of every UGV
    action_mask: np.ndarray  # (B + 1,) boolean feasibility
    current_stop: int

    @property
    def num_stops(self) -> int:
        return len(self.stop_features)

    def flat(self) -> np.ndarray:
        """Flattened vector form, used by the MLP-style baselines."""
        return np.concatenate([self.stop_features.ravel(), self.ugv_positions.ravel()])


@dataclass
class UAVObservation:
    """Observation ``o_t^v`` (Eqn. 11) for one airborne UAV."""

    agent_index: int
    grid: np.ndarray  # (3, S, S): obstacles, sensor data, other UAVs
    aux: np.ndarray  # (5,): x, y, energy fraction, window fraction, carrier dist

    @property
    def channels(self) -> int:
        return self.grid.shape[0]


@dataclass
class UGVObsArrays:
    """Struct-of-arrays UGV observations for a batch of env replicas.

    The leading axes are arbitrary (``(K,)`` for a vec-env step,
    ``(K, T)`` inside a rollout buffer, ``(P,)`` for a PPO minibatch of
    gathered timesteps); the trailing axes are fixed per field.
    ``ugv_positions``/``ugv_stops`` are shared by all agents of a replica
    and therefore stored once per replica, not once per agent.
    """

    stop_features: np.ndarray  # (..., U, B, 3)
    ugv_positions: np.ndarray  # (..., U, 2) — position of every UGV
    ugv_stops: np.ndarray  # (..., U) int64
    action_mask: np.ndarray  # (..., U, B + 1) bool

    @classmethod
    def allocate(cls, lead_shape: tuple[int, ...], num_agents: int,
                 num_stops: int) -> "UGVObsArrays":
        lead = tuple(lead_shape)
        return cls(
            stop_features=np.zeros(lead + (num_agents, num_stops, 3)),
            ugv_positions=np.zeros(lead + (num_agents, 2)),
            ugv_stops=np.zeros(lead + (num_agents,), dtype=np.int64),
            action_mask=np.zeros(lead + (num_agents, num_stops + 1), dtype=bool),
        )

    @classmethod
    def from_observations(cls, obs_lists: "list[list[UGVObservation]]") -> "UGVObsArrays":
        """Stack per-replica dataclass lists into arrays (inverse of view)."""
        return cls(
            stop_features=np.stack([[o.stop_features for o in obs] for obs in obs_lists]),
            ugv_positions=np.stack([obs[0].ugv_positions for obs in obs_lists]),
            ugv_stops=np.stack([obs[0].ugv_stops for obs in obs_lists]).astype(np.int64),
            action_mask=np.stack([[o.action_mask for o in obs] for obs in obs_lists]),
        )

    @property
    def num_agents(self) -> int:
        return self.ugv_stops.shape[-1]

    @property
    def num_stops(self) -> int:
        return self.stop_features.shape[-2]

    @property
    def lead_shape(self) -> tuple[int, ...]:
        return self.ugv_stops.shape[:-1]

    def index(self, idx) -> "UGVObsArrays":
        """Fancy-index the leading axes (numpy semantics, e.g. a (P,) gather)."""
        return UGVObsArrays(self.stop_features[idx], self.ugv_positions[idx],
                            self.ugv_stops[idx], self.action_mask[idx])

    def write(self, idx, src: "UGVObsArrays") -> None:
        """Copy ``src`` into the slot(s) selected by ``idx``."""
        self.stop_features[idx] = src.stop_features
        self.ugv_positions[idx] = src.ugv_positions
        self.ugv_stops[idx] = src.ugv_stops
        self.action_mask[idx] = src.action_mask

    def observations(self, *idx) -> list[UGVObservation]:
        """Thin dataclass-view adapter for one replica slot.

        ``idx`` must select away every leading axis, leaving the per-agent
        arrays; existing list-based policies and tests consume the result
        unchanged.
        """
        sf = self.stop_features[idx]
        pos = self.ugv_positions[idx]
        stops = self.ugv_stops[idx]
        mask = self.action_mask[idx]
        return [UGVObservation(u, sf[u], pos, stops, mask[u], int(stops[u]))
                for u in range(stops.shape[0])]


@dataclass
class UAVObsArrays:
    """Struct-of-arrays UAV observations; ``airborne`` gates validity.

    Rows of docked UAVs hold stale/garbage data by design — every
    consumer masks with ``airborne`` first, which keeps the hot path free
    of per-step reallocation.
    """

    grid: np.ndarray  # (..., V, 3, S, S)
    aux: np.ndarray  # (..., V, 5)
    airborne: np.ndarray  # (..., V) bool

    @classmethod
    def allocate(cls, lead_shape: tuple[int, ...], num_uavs: int,
                 obs_size: int, aux_dim: int = 5) -> "UAVObsArrays":
        lead = tuple(lead_shape)
        return cls(
            grid=np.zeros(lead + (num_uavs, 3, obs_size, obs_size)),
            aux=np.zeros(lead + (num_uavs, aux_dim)),
            airborne=np.zeros(lead + (num_uavs,), dtype=bool),
        )

    @property
    def num_uavs(self) -> int:
        return self.airborne.shape[-1]

    def index(self, idx) -> "UAVObsArrays":
        return UAVObsArrays(self.grid[idx], self.aux[idx], self.airborne[idx])

    def write(self, idx, src: "UAVObsArrays") -> None:
        self.grid[idx] = src.grid
        self.aux[idx] = src.aux
        self.airborne[idx] = src.airborne

    def observations(self, *idx) -> list[UAVObservation | None]:
        """Dataclass-view adapter: None for docked UAVs, like the env."""
        grid = self.grid[idx]
        aux = self.aux[idx]
        airborne = self.airborne[idx]
        return [UAVObservation(v, grid[v], aux[v]) if airborne[v] else None
                for v in range(airborne.shape[0])]


class ObservationBuilder:
    """Builds observations; owns the static rasters and coverage matrices."""

    def __init__(self, campus: CampusMap, stops: StopGraph, config: EnvConfig):
        self.campus = campus
        self.stops = stops
        self.config = config
        self._extent = np.array([campus.width, campus.height])

        # Obstacle raster covering the whole workzone.
        cell = config.uav_obs_cell
        self.grid_w = int(np.ceil(campus.width / cell))
        self.grid_h = int(np.ceil(campus.height / cell))
        self.obstacles = self._rasterize_buildings()

        # Sensor cell coordinates for the data channel.
        self.sensor_cells = np.floor(campus.sensor_positions / cell).astype(int)
        self.sensor_cells[:, 0] = np.clip(self.sensor_cells[:, 0], 0, self.grid_w - 1)
        self.sensor_cells[:, 1] = np.clip(self.sensor_cells[:, 1], 0, self.grid_h - 1)

        # Coverage: which sensors count toward stop b's d_t^b (Eqn. 8).
        deltas = (stops.positions[:, None, :] - campus.sensor_positions[None, :, :])
        self.coverage = (np.hypot(deltas[..., 0], deltas[..., 1])
                         <= config.stop_coverage_radius)  # (B, P)

        # Stop reachability under the 400 m/slot budget, along roads.
        metre = stops.metre_distances()
        self.reachable = metre <= config.ugv_max_step  # (B, B) includes self

        # Which stops a UGV at stop b can refresh information about.
        stop_gaps = np.linalg.norm(
            stops.positions[:, None, :] - stops.positions[None, :, :], axis=-1)
        self.refresh = stop_gaps <= config.ugv_observe_radius  # (B, B)

        self._norm_positions = stops.positions / self._extent

        # Obstacle raster padded by the crop radius: out-of-zone cells are
        # obstacles, so a UAV crop becomes a pure slice of this array.
        radius = config.uav_obs_radius
        self._padded_obstacles = np.pad(self.obstacles, radius, constant_values=1.0)

    # ------------------------------------------------------------------
    def _rasterize_buildings(self) -> np.ndarray:
        """Binary obstacle raster (grid_h, grid_w) at cell-centre samples."""
        cell = self.config.uav_obs_cell
        raster = np.zeros((self.grid_h, self.grid_w), dtype=np.float64)
        for building in self.campus.buildings:
            box = building.bbox
            c0 = max(0, int(box.min_x // cell))
            c1 = min(self.grid_w - 1, int(box.max_x // cell))
            r0 = max(0, int(box.min_y // cell))
            r1 = min(self.grid_h - 1, int(box.max_y // cell))
            # One-off rasterisation at builder construction; the polygon
            # containment test is per-cell by nature.
            for r in range(r0, r1 + 1):
                for c in range(c0, c1 + 1):
                    centre = ((c + 0.5) * cell, (r + 0.5) * cell)
                    if building.contains(centre):
                        raster[r, c] = 1.0
        return raster

    # ------------------------------------------------------------------
    def stop_data(self, remaining: np.ndarray) -> np.ndarray:
        """d_t^b for every stop: data collectible around that stop (Eqn. 8)."""
        return self.coverage @ np.asarray(remaining, dtype=float)

    def data_scale(self, initial: np.ndarray) -> float:
        """Normalisation constant for stop data channels."""
        per_stop = self.stop_data(initial)
        return float(max(per_stop.max(), 1e-9))

    def ugv_observation(self, agent: int, ugvs: list[UGV], last_seen: np.ndarray,
                        seen_mask: np.ndarray, data_scale: float) -> UGVObservation:
        """Assemble ``o_t^u`` using the UGV's stale per-stop memory."""
        cfg = self.config
        b = self.stops.num_stops
        features = np.empty((b, 3))
        features[:, :2] = self._norm_positions
        masked = np.where(seen_mask, last_seen / data_scale, cfg.mask_constant)
        features[:, 2] = masked

        # UGV positions/stops mutate on every move; the O(U) gather
        # (U <= 8) is cheaper than syncing a cache at each move site.
        positions = np.array([u.position for u in ugvs]) / self._extent
        stops = np.array([u.stop for u in ugvs], dtype=int)

        mask = np.zeros(b + 1, dtype=bool)
        mask[:b] = self.reachable[ugvs[agent].stop]
        mask[ugvs[agent].stop] = True  # staying put is always allowed
        mask[b] = True  # releasing is always allowed when the UGV acts
        return UGVObservation(agent, features, positions, stops, mask, ugvs[agent].stop)

    def encode_ugv_batch(self, ugvs: list[UGV], last_seen: np.ndarray,
                         seen_mask: np.ndarray, data_scale: float,
                         out: UGVObsArrays, idx=()) -> None:
        """Array-encoder equivalent of :meth:`ugv_observation` for all agents.

        Writes one replica's joint observation into ``out``'s slot ``idx``
        without constructing dataclasses; the values are bitwise-identical
        to the per-agent path (pinned by a unit test).
        """
        cfg = self.config
        b = self.stops.num_stops
        u = len(ugvs)
        features = out.stop_features[idx]  # (U, B, 3) view
        features[:, :, :2] = self._norm_positions
        features[:, :, 2] = np.where(seen_mask, last_seen / data_scale, cfg.mask_constant)

        # Same O(U) gather trade-off as ugv_observation above.
        positions = np.array([g.position for g in ugvs])
        out.ugv_positions[idx] = positions / self._extent
        stops = np.fromiter((g.stop for g in ugvs), dtype=np.int64, count=u)
        out.ugv_stops[idx] = stops

        mask = out.action_mask[idx]  # (U, B + 1) view
        mask[:, :b] = self.reachable[stops]
        mask[np.arange(u), stops] = True
        mask[:, b] = True

    # ------------------------------------------------------------------
    def global_rasters(self, remaining: np.ndarray, uavs: list[UAV],
                       data_scale_per_sensor: float) -> tuple[np.ndarray, np.ndarray]:
        """Dynamic channels shared by all UAV crops this timeslot.

        ``remaining`` is the env's preallocated per-sensor data array
        (``AirGroundEnv._sensor_remaining``), read-only here — passing
        the array instead of the Sensor list is what lets the encoder
        avoid a per-step comprehension rebuild.
        """
        data = np.zeros_like(self.obstacles)
        remaining = np.asarray(remaining, dtype=float)
        np.add.at(data, (self.sensor_cells[:, 1], self.sensor_cells[:, 0]),
                  remaining / data_scale_per_sensor)
        presence = np.zeros_like(self.obstacles)
        cell = self.config.uav_obs_cell
        for uav in uavs:
            if uav.airborne:
                c = int(np.clip(uav.position[0] // cell, 0, self.grid_w - 1))
                r = int(np.clip(uav.position[1] // cell, 0, self.grid_h - 1))
                presence[r, c] += 1.0
        return data, presence

    def uav_observation(self, uav: UAV, carrier: UGV, window_left: int,
                        data_raster: np.ndarray, presence_raster: np.ndarray) -> UAVObservation:
        """Egocentric crop around the UAV (Eqn. 11)."""
        cfg = self.config
        cell = cfg.uav_obs_cell
        radius = cfg.uav_obs_radius
        size = cfg.uav_obs_size
        cx = int(np.clip(uav.position[0] // cell, 0, self.grid_w - 1))
        cy = int(np.clip(uav.position[1] // cell, 0, self.grid_h - 1))

        grid = np.zeros((3, size, size))
        r0, r1 = cy - radius, cy + radius + 1
        c0, c1 = cx - radius, cx + radius + 1
        rr0, cc0 = max(r0, 0), max(c0, 0)
        rr1, cc1 = min(r1, self.grid_h), min(c1, self.grid_w)
        dst_r0, dst_c0 = rr0 - r0, cc0 - c0
        dst_r1, dst_c1 = dst_r0 + (rr1 - rr0), dst_c0 + (cc1 - cc0)
        # Outside the workzone counts as obstacle.
        grid[0].fill(1.0)
        grid[0, dst_r0:dst_r1, dst_c0:dst_c1] = self.obstacles[rr0:rr1, cc0:cc1]
        grid[1, dst_r0:dst_r1, dst_c0:dst_c1] = data_raster[rr0:rr1, cc0:cc1]
        grid[2, dst_r0:dst_r1, dst_c0:dst_c1] = presence_raster[rr0:rr1, cc0:cc1]
        # Remove self from the presence channel.
        grid[2, radius, radius] = max(0.0, grid[2, radius, radius] - 1.0)

        carrier_gap = float(np.linalg.norm(uav.position - carrier.position))
        aux = np.array([
            uav.position[0] / self.campus.width,
            uav.position[1] / self.campus.height,
            uav.energy / uav.max_energy,
            window_left / max(cfg.release_duration, 1),
            carrier_gap / max(self.campus.width, self.campus.height),
        ])
        return UAVObservation(uav.index, grid, aux)

    def encode_uav_batch(self, uavs: list[UAV], ugvs: list[UGV],
                         remaining: np.ndarray, sensor_scale: float,
                         out: UAVObsArrays, idx=()) -> None:
        """Array-encoder equivalent of :meth:`uav_observation` for all UAVs.

        Docked UAVs only get their ``airborne`` flag cleared; their grid and
        aux rows are left stale (consumers mask on ``airborne``).  Crops are
        pure slices of radius-padded rasters, so the egocentric window never
        needs per-UAV bounds arithmetic.
        """
        cfg = self.config
        cell = cfg.uav_obs_cell
        radius = cfg.uav_obs_radius
        size = cfg.uav_obs_size
        # Airborne flags flip at launch/dock; O(V) bool gather per encode.
        airborne = np.fromiter((v.airborne for v in uavs), dtype=bool, count=len(uavs))
        out.airborne[idx] = airborne
        if not airborne.any():
            return

        data, presence = self.global_rasters(remaining, uavs, sensor_scale)
        padded_data = np.pad(data, radius)
        padded_presence = np.pad(presence, radius)
        grid = out.grid[idx]  # (V, 3, S, S) view
        aux = out.aux[idx]  # (V, 5) view
        extent = max(self.campus.width, self.campus.height)
        for v in np.nonzero(airborne)[0]:
            uav = uavs[v]
            carrier = ugvs[uav.carrier]
            cx = int(np.clip(uav.position[0] // cell, 0, self.grid_w - 1))
            cy = int(np.clip(uav.position[1] // cell, 0, self.grid_h - 1))
            # Padded rasters shift indices by +radius, so the crop origin
            # in padded coordinates is exactly (cy, cx).
            grid[v, 0] = self._padded_obstacles[cy:cy + size, cx:cx + size]
            grid[v, 1] = padded_data[cy:cy + size, cx:cx + size]
            grid[v, 2] = padded_presence[cy:cy + size, cx:cx + size]
            centre = grid[v, 2, radius, radius]
            grid[v, 2, radius, radius] = max(0.0, centre - 1.0)  # remove self
            carrier_gap = float(np.linalg.norm(uav.position - carrier.position))
            aux[v, 0] = uav.position[0] / self.campus.width
            aux[v, 1] = uav.position[1] / self.campus.height
            aux[v, 2] = uav.energy / uav.max_energy
            aux[v, 3] = carrier.wait_timer / max(cfg.release_duration, 1)
            aux[v, 4] = carrier_gap / extent
