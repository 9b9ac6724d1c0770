"""The air-ground spatial-crowdsourcing environment (Section III).

``AirGroundEnv`` is a time-slotted Dec-POMDP.  Each timeslot:

1. Every *idle* UGV either moves to a reachable stop or releases its
   carried UAVs (action index ``B`` = release; ``0..B-1`` = target stop).
2. Airborne UAVs fly a continuous 2-D step (clipped to ``δ_max^v`` and to
   remaining battery), blocked by building obstacles (a crash attempt
   leaves the UAV in place and incurs the ``r^{v-}`` penalty).
3. UAVs collect data from every sensor within sensing range, capped at
   the per-sensor collection rate.
4. UAVs whose battery is empty dock early; when the release window ends,
   all of a UGV's UAVs dock and recharge to ``e_0``.
5. Rewards follow Eqns. (12)-(13); metrics follow Eqns. (3)-(7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..maps.campus import CampusMap
from ..maps.stop_graph import StopGraph, build_stop_graph
from .config import EnvConfig
from .entities import UAV, UGV, Sensor
from .events import EventLog
from .metrics import MetricSnapshot, collection_ratio, cooperation_factor, energy_ratio, jain_fairness
from .observation import ObservationBuilder, UAVObservation, UGVObservation

__all__ = ["AirGroundEnv", "StepResult"]

# Shared "no movement" delta for docked/passive UAVs; never mutated
# (every consumer rebinds, so one instance serves all steps).
_ZERO_DELTA = np.zeros(2)


@dataclass
class StepResult:
    """Everything one environment step returns."""

    ugv_observations: list[UGVObservation]
    uav_observations: list[UAVObservation | None]
    ugv_rewards: np.ndarray
    uav_rewards: np.ndarray
    ugv_actionable: np.ndarray  # bool (U,): which UGVs act next timeslot
    done: bool
    info: dict = field(default_factory=dict)


class AirGroundEnv:
    """Air-ground SC task with UAV carriers on a campus map."""

    RELEASE = "release"

    def __init__(self, campus: CampusMap, config: EnvConfig | None = None,
                 stops: StopGraph | None = None, seed: int = 0,
                 data_weights: np.ndarray | None = None,
                 builder: ObservationBuilder | None = None):
        self.campus = campus
        self.config = config or EnvConfig()
        self.stops = stops or build_stop_graph(campus, self.config.stop_interval)
        # Replicas of a VecAirGroundEnv share one builder (it is stateless
        # apart from precomputed rasters/coverage, which depend only on the
        # campus/stops/config triple).
        self.builder = builder or ObservationBuilder(campus, self.stops, self.config)
        self._seed = seed
        self.rng = np.random.default_rng(seed)
        # Optional per-sensor multipliers on the drawn d_0 (scenario
        # modelling, e.g. a disaster zone holding more data to collect).
        if data_weights is not None:
            data_weights = np.asarray(data_weights, dtype=float)
            if data_weights.shape != (campus.num_sensors,):
                raise ValueError(f"data_weights must have shape ({campus.num_sensors},)")
            if (data_weights <= 0).any():
                raise ValueError("data_weights must be positive")
        self._data_weights = data_weights
        self._event_log: EventLog | None = None

        self.sensors: list[Sensor] = []
        self.ugvs: list[UGV] = []
        self.uavs: list[UAV] = []
        self.t = 0
        self._last_seen = np.zeros((self.config.num_ugvs, self.stops.num_stops))
        self._seen_mask = np.zeros_like(self._last_seen, dtype=bool)
        self._data_scale = 1.0
        self._sensor_scale = 1.0
        self._initial_data = np.zeros(campus.num_sensors)
        # Sensor positions are static and per-sensor `remaining` only
        # mutates at the drain site, so both live in preallocated arrays
        # kept in sync with the Sensor objects by assignment (never
        # arithmetic) — bit-identical to a per-step rebuild.
        self._sensor_positions = np.array(campus.sensor_positions, dtype=float)
        self._sensor_remaining = np.zeros(campus.num_sensors)

    # ------------------------------------------------------------------
    def rng_state(self) -> dict:
        """JSON-able snapshot of the env's rng stream (seed + position).

        Checkpointing captures this at episode boundaries: simulation
        state is rebuilt by ``reset_state()`` from the rng stream, so the
        stream position *is* the env's resumable state.
        """
        from ..nn.serialize import rng_state as _rng_state

        return {"seed": self._seed, "bit_generator": _rng_state(self.rng)}

    def set_rng_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`rng_state`."""
        from ..nn.serialize import rng_from_state

        self._seed = state["seed"]
        self.rng = rng_from_state(state["bit_generator"])

    def state_digest(self) -> str:
        """Byte-exact digest of the env's resumable + kinematic state.

        Covers the rng stream position, the timeslot, and every entity's
        live state (UGV/UAV positions, batteries, sensor data levels) —
        two envs with equal digests step identically from here on.  Used
        by ``repro check-determinism`` to fingerprint iterations.
        """
        from ..nn.serialize import state_digest

        # UGV/UAV kinematic state mutates every timeslot, and this digest
        # only runs on the check-determinism diagnostic path, so the
        # rebuilds below are not per-step training cost.
        return state_digest({
            "rng": self.rng_state(),
            "t": int(self.t),
            "ugv_pos": np.array([ugv.position for ugv in self.ugvs]),
            "uav_pos": np.array([uav.position for uav in self.uavs]),
            "uav_energy": np.array([uav.energy for uav in self.uavs]),
            "sensor_data": self._sensor_remaining,
        })

    # ------------------------------------------------------------------
    def attach_event_log(self, log: EventLog | None) -> None:
        """Attach (or detach with None) a structured event log."""
        self._event_log = log

    def _emit(self, kind: str, agent: int, value: float = 0.0, position=None) -> None:
        if self._event_log is not None:
            self._event_log.emit(self.t, kind, agent, value, position)

    @property
    def num_stops(self) -> int:
        """Number of stops in the shared stop graph."""
        return self.stops.num_stops

    @property
    def ugv_action_dim(self) -> int:
        """Discrete UGV action space size: one per stop + release."""
        return self.stops.num_stops + 1

    @property
    def release_action(self) -> int:
        """The UGV action index meaning "release/recall UAVs here"."""
        return self.stops.num_stops

    def uavs_of(self, ugv_index: int) -> list[UAV]:
        """The UAVs carried by (assigned to) UGV ``ugv_index``."""
        v = self.config.num_uavs_per_ugv
        return self.uavs[ugv_index * v:(ugv_index + 1) * v]

    # ------------------------------------------------------------------
    def reset(self, seed: int | None = None) -> StepResult:
        """Start a fresh episode; sensors draw d_0 ~ U[min, max] GB."""
        self.reset_state(seed)
        cfg = self.config
        return StepResult(
            ugv_observations=self._ugv_observations(),
            uav_observations=self._uav_observations(),
            ugv_rewards=np.zeros(cfg.num_ugvs),
            uav_rewards=np.zeros(cfg.num_uavs),
            ugv_actionable=self._actionable(),
            done=False,
            info={"metrics": self.metrics().as_dict(), "t": self.t},
        )

    def reset_state(self, seed: int | None = None) -> None:
        """Reset the simulation state without building observations.

        Called without a seed the current rng stream continues — exactly
        what a fresh :meth:`reset` does mid-training, which is what keeps
        vec-env auto-resets equivalent to sequential multi-episode runs.
        """
        if seed is not None:
            self._seed = seed
            self.rng = np.random.default_rng(seed)
        cfg = self.config

        self._initial_data = self.rng.uniform(
            cfg.sensor_data_min, cfg.sensor_data_max, size=self.campus.num_sensors)
        if self._data_weights is not None:
            self._initial_data = self._initial_data * self._data_weights
        self.sensors = [
            Sensor(i, self.campus.sensor_positions[i], float(self._initial_data[i]))
            for i in range(self.campus.num_sensors)
        ]
        self._sensor_remaining = self._initial_data.copy()
        self._sensor_scale = float(self._initial_data.max())
        self._data_scale = self.builder.data_scale(self._initial_data)

        centre_stop = self.stops.nearest_stop(self.campus.center)
        centre_pos = self.stops.positions[centre_stop]
        self.ugvs = [UGV(u, centre_stop, centre_pos.copy()) for u in range(cfg.num_ugvs)]
        self.uavs = []
        for u in range(cfg.num_ugvs):
            for k in range(cfg.num_uavs_per_ugv):
                self.uavs.append(UAV(u * cfg.num_uavs_per_ugv + k, u,
                                     centre_pos.copy(), cfg.uav_energy, cfg.uav_energy))

        self.t = 0
        self._last_seen = np.zeros((cfg.num_ugvs, self.stops.num_stops))
        self._seen_mask = np.zeros_like(self._last_seen, dtype=bool)
        self._refresh_knowledge()
        self._emit("reset", -1)

    # ------------------------------------------------------------------
    def step(self, ugv_actions, uav_actions) -> StepResult:
        """Advance one timeslot.

        Parameters
        ----------
        ugv_actions:
            Sequence of ``U`` ints in ``[0, B]``; ignored for waiting UGVs.
        uav_actions:
            Sequence of ``V`` items; airborne UAVs read a 2-vector
            movement (metres), docked UAVs may pass ``None``.
        """
        ugv_rewards, uav_rewards, done, collected = self.step_dynamics(
            ugv_actions, uav_actions)
        return StepResult(
            ugv_observations=self._ugv_observations(),
            uav_observations=self._uav_observations(),
            ugv_rewards=ugv_rewards,
            uav_rewards=uav_rewards,
            ugv_actionable=self._actionable(),
            done=done,
            info={"metrics": self.metrics().as_dict(), "t": self.t,
                  "collected_this_step": collected},
        )

    def step_dynamics(self, ugv_actions, uav_actions) -> tuple[np.ndarray, np.ndarray, bool, float]:
        """Advance the simulation one timeslot without building observations.

        Returns ``(ugv_rewards, uav_rewards, done, collected)``; the vec-env
        hot path pairs this with the array observation encoders so no
        per-agent dataclasses (or per-step metric dicts) are constructed.
        """
        cfg = self.config
        if self.t >= cfg.episode_len:
            raise RuntimeError("episode already finished; call reset()")
        ugv_actions = np.asarray(ugv_actions, dtype=int)
        if ugv_actions.shape != (cfg.num_ugvs,):
            raise ValueError(f"expected {cfg.num_ugvs} UGV actions, got {ugv_actions.shape}")
        if len(uav_actions) != cfg.num_uavs:
            raise ValueError(f"expected {cfg.num_uavs} UAV actions, got {len(uav_actions)}")

        # -- 1. UGV decisions ------------------------------------------
        for ugv, action in zip(self.ugvs, ugv_actions):
            if ugv.is_waiting:
                continue
            if action == self.release_action:
                ugv.begin_release(cfg.release_duration)
                self._emit("release", ugv.index, position=ugv.position)
                for uav in self.uavs_of(ugv.index):
                    uav.launch(ugv.position)
            else:
                self._move_ugv(ugv, int(action))

        # -- 2. UAV flight ----------------------------------------------
        crashed = np.zeros(cfg.num_uavs, dtype=bool)
        flown = np.zeros(cfg.num_uavs)
        for uav, action in zip(self.uavs, uav_actions):
            if not uav.airborne:
                continue
            delta = _ZERO_DELTA if action is None else np.asarray(action, dtype=float).reshape(2)
            flown[uav.index], crashed[uav.index] = self._fly_uav(uav, delta)

        # -- 3. Collection ----------------------------------------------
        collected = self._collect_data()

        # -- 4. Rewards (before docking so flight state is still known) --
        uav_rewards = self._uav_rewards(collected, flown, crashed)
        ugv_rewards = self._ugv_rewards(collected)

        # -- 5. Docking / recharge --------------------------------------
        for uav in self.uavs:
            if uav.airborne and uav.exhausted:
                self._emit("dock", uav.index, uav.flight_collected, uav.position)
                uav.dock(self.ugvs[uav.carrier].position)
        for ugv in self.ugvs:
            window_closed = ugv.tick_wait()
            if window_closed:
                for uav in self.uavs_of(ugv.index):
                    if uav.airborne:
                        self._emit("dock", uav.index, uav.flight_collected, uav.position)
                        uav.dock(ugv.position)

        # -- 6. Knowledge refresh + time --------------------------------
        self._refresh_knowledge()
        self.t += 1
        done = self.t >= cfg.episode_len
        return ugv_rewards, uav_rewards, done, float(collected.sum())

    # ------------------------------------------------------------------
    # Internal mechanics
    # ------------------------------------------------------------------
    def _move_ugv(self, ugv: UGV, target: int) -> None:
        """Move along roads to ``target`` if reachable this slot, else stay."""
        if not (0 <= target < self.stops.num_stops):
            raise ValueError(f"invalid stop index {target}")
        distance = self.stops.metre_distances()[ugv.stop, target]
        if target == ugv.stop:
            return
        if distance <= self.config.ugv_max_step:
            ugv.move_to(target, self.stops.positions[target], float(distance))
            # Docked UAVs ride on their carrier.
            for uav in self.uavs_of(ugv.index):
                if not uav.airborne:
                    uav.position = ugv.position.copy()
            self._emit("move", ugv.index, float(distance), ugv.position)
        # Unreachable targets are treated as "stay" (the action mask
        # prevents trained policies from selecting them).

    def _fly_uav(self, uav: UAV, delta: np.ndarray) -> tuple[float, bool]:
        """Apply one UAV movement; returns (metres flown, crashed?)."""
        cfg = self.config
        norm = float(np.linalg.norm(delta))
        budget = min(cfg.uav_max_step, uav.energy / cfg.energy_per_metre)
        if norm > budget and norm > 0:
            delta = delta * (budget / norm)
            norm = budget
        if norm < 1e-9:
            return 0.0, False
        target = uav.position + delta
        target[0] = float(np.clip(target[0], 0.0, self.campus.width))
        target[1] = float(np.clip(target[1], 0.0, self.campus.height))
        if self.campus.segment_hits_building(uav.position, target):
            uav.crashes += 1
            self._emit("crash", uav.index, position=uav.position)
            return 0.0, True
        metres = float(np.linalg.norm(target - uav.position))
        uav.fly(target, metres, cfg.energy_per_metre)
        return metres, False

    def _collect_data(self) -> np.ndarray:
        """Each airborne UAV drains sensors within range; returns per-UAV GB."""
        cfg = self.config
        collected = np.zeros(cfg.num_uavs)
        positions = self._sensor_positions
        # Airborne UAVs are few and sensing ranges overlap, so the
        # all-sensors distance scan stays; a grid hash is the documented
        # follow-up for paper-scale fleets (ROADMAP).
        for uav in self.uavs:
            if not uav.airborne:
                continue
            gaps = np.hypot(positions[:, 0] - uav.position[0],
                            positions[:, 1] - uav.position[1])
            for p in np.nonzero(gaps <= cfg.sensing_range)[0]:
                sensor = self.sensors[int(p)]
                taken = sensor.drain(cfg.collect_rate)
                # Sync the cache at the lone mutation site (assignment of
                # the same float keeps it bit-identical to a rebuild).
                self._sensor_remaining[int(p)] = sensor.remaining
                if taken > 0:
                    collected[uav.index] += taken
                    uav.record_collection(taken)
                    self._emit("collect", uav.index, taken, uav.position)
        return collected

    def _uav_rewards(self, collected: np.ndarray, flown: np.ndarray,
                     crashed: np.ndarray) -> np.ndarray:
        """Eqn. (13): fairness-weighted collection per energy, minus crashes."""
        cfg = self.config
        xi_t = jain_fairness(self._initial_data, self._remaining(), cfg.epsilon)
        rewards = np.zeros(cfg.num_uavs)
        for uav in self.uavs:
            if not uav.airborne:
                continue
            v = uav.index
            positive = xi_t * collected[v] / (cfg.energy_per_metre * flown[v] + cfg.epsilon)
            rewards[v] = float(np.clip(positive, 0.0, cfg.reward_clip))
            if crashed[v]:
                rewards[v] -= cfg.crash_penalty
        return rewards

    def _ugv_rewards(self, collected: np.ndarray) -> np.ndarray:
        """Eqn. (12): a releasing/waiting UGV earns its UAVs' collection."""
        rewards = np.zeros(self.config.num_ugvs)
        for ugv in self.ugvs:
            if ugv.is_waiting:
                rewards[ugv.index] = sum(collected[u.index] for u in self.uavs_of(ugv.index))
        return rewards

    def _refresh_knowledge(self) -> None:
        """UGVs refresh d̂ for stops near them (the masking rule of Eqn. 9b)."""
        per_stop = self.builder.stop_data(self._remaining())
        for ugv in self.ugvs:
            visible = self.builder.refresh[ugv.stop]
            self._last_seen[ugv.index, visible] = per_stop[visible]
            self._seen_mask[ugv.index, visible] = True

    def _remaining(self) -> np.ndarray:
        """Per-sensor remaining data, as the live preallocated cache.

        Returned by reference: every consumer (metrics, fairness,
        knowledge refresh, rasters) is read-only.
        """
        return self._sensor_remaining

    # ------------------------------------------------------------------
    # Observations and metrics
    # ------------------------------------------------------------------
    def _actionable(self) -> np.ndarray:
        """Boolean (U,): which UGVs act next timeslot (not holding a release)."""
        # O(U) bool gather with U <= 8; wait flags flip at three sites, so
        # a cache buys nothing over the rebuild.
        return np.array([not g.is_waiting for g in self.ugvs])

    def encode_observations(self, ugv_out, uav_out, idx=()) -> None:
        """Write current observations into array slots (see UGV/UAVObsArrays)."""
        self.builder.encode_ugv_batch(self.ugvs, self._last_seen, self._seen_mask,
                                      self._data_scale, ugv_out, idx)
        self.builder.encode_uav_batch(self.uavs, self.ugvs, self._sensor_remaining,
                                      self._sensor_scale, uav_out, idx)

    def _ugv_observations(self) -> list[UGVObservation]:
        return [
            self.builder.ugv_observation(u, self.ugvs, self._last_seen[u],
                                         self._seen_mask[u], self._data_scale)
            for u in range(self.config.num_ugvs)
        ]

    def _uav_observations(self) -> list[UAVObservation | None]:
        data_raster, presence = self.builder.global_rasters(
            self._sensor_remaining, self.uavs, self._sensor_scale)
        out: list[UAVObservation | None] = []
        for uav in self.uavs:
            if not uav.airborne:
                out.append(None)
                continue
            carrier = self.ugvs[uav.carrier]
            out.append(self.builder.uav_observation(
                uav, carrier, carrier.wait_timer, data_raster, presence))
        return out

    def metrics(self) -> MetricSnapshot:
        """Current values of ψ, ξ, ζ, β (Eqns. 3-6)."""
        remaining = self._remaining()
        psi = collection_ratio(self._initial_data, remaining)
        xi = jain_fairness(self._initial_data, remaining, self.config.epsilon)
        # Metric snapshots run on the reporting path (the vec hot path
        # uses step_dynamics, which skips per-step metric dicts).
        zeta = cooperation_factor(
            np.array([u.releases for u in self.uavs]),
            np.array([u.effective_releases for u in self.uavs]))
        spent = sum(u.energy_spent for u in self.uavs)
        charged = sum(u.energy_charged for u in self.uavs)
        beta = energy_ratio(spent, self.config.uav_energy * self.config.num_uavs, charged)
        return MetricSnapshot(psi, xi, zeta, beta)
