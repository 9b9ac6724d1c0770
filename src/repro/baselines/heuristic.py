"""Greedy heuristic coalition — a non-learning planner baseline.

Not part of the paper's comparison set, but a useful sanity reference for
users: UGVs drive toward the reachable stop with the most *observed*
collectible data and release their UAVs when the local stop looks rich;
UAVs fly straight toward the densest data cell in their observation crop.

Because it plans on the same partial observations the learned policies
see, it bounds what pure myopic exploitation achieves without any
coordination — learned methods should beat it once trained, chiefly on
fairness and cooperation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..core.ippo import run_episode
from ..core.policies import UGVPolicyOutput
from ..env.airground import AirGroundEnv
from ..env.metrics import MetricSnapshot
from ..nn import DiagGaussian, Module, Tensor

__all__ = ["GreedyUGVPolicy", "GreedyUAVPolicy", "GreedyAgent"]

_CHOSEN = 50.0  # logit given to the chosen action (softmax ~ deterministic)


class GreedyUGVPolicy(Module):
    """Move toward observed data; release when the local stop is rich."""

    def __init__(self, release_fraction: float = 0.5):
        super().__init__()
        if not 0.0 < release_fraction <= 1.0:
            raise ValueError("release_fraction must be in (0, 1]")
        self.release_fraction = release_fraction

    def forward(self, observations) -> UGVPolicyOutput:
        rows = []
        for obs in observations:
            b = obs.num_stops
            logits = np.where(obs.action_mask, 0.0, -1e9)
            observed = np.maximum(obs.stop_features[:, 2], 0.0)  # mask const -> 0
            feasible = obs.action_mask[:b]
            candidate_values = np.where(feasible, observed, -np.inf)
            best_stop = int(np.argmax(candidate_values))
            local = observed[obs.current_stop]
            peak = max(candidate_values[best_stop], 1e-12)
            if local > 0 and local >= self.release_fraction * peak:
                logits[b] = _CHOSEN  # release here
            else:
                logits[best_stop] = _CHOSEN
            rows.append(Tensor(logits.astype(self.dtype)))
        return UGVPolicyOutput(Tensor.stack(rows, axis=0),
                               Tensor(np.zeros(len(observations), dtype=self.dtype)))


class GreedyUAVPolicy(Module):
    """Fly toward the densest data cell visible in the egocentric crop.

    Two pragmatic behaviours on top of pure pursuit:

    * **hover** when the target cell is already within ~sensing range
      (collection continues, energy is saved);
    * **deflect** around obstacles — if the straight ray toward the
      target crosses an obstacle cell, rotate the heading in 45-degree
      steps until the first step of the path is clear.
    """

    # Cells closer than this to the target count as "in sensing range".
    HOVER_CELLS = 2.0

    def __init__(self, cell_metres: float = 20.0, max_step: float = 100.0):
        super().__init__()
        if cell_metres <= 0 or max_step <= 0:
            raise ValueError("cell_metres and max_step must be positive")
        self.cells_per_step = max_step / cell_metres

    def forward(self, observations):
        means = [self._movement(obs) for obs in observations]
        mean = Tensor(np.asarray(means, dtype=self.dtype))
        log_std = Tensor(np.full(2, -3.0, dtype=self.dtype))  # near-deterministic
        return DiagGaussian(mean, log_std), Tensor(np.zeros(len(observations),
                                                            dtype=self.dtype))

    @staticmethod
    def _dilate(obstacles: np.ndarray) -> np.ndarray:
        """Grow obstacles by one cell: rasters sample cell centres, so a
        building edge can stick up to half a cell into a "free" cell, and
        the UAV's own sub-cell position adds another half-cell of error."""
        padded = np.pad(obstacles, 1, mode="edge")
        out = obstacles.copy()
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                out = np.maximum(out, padded[1 + dr:1 + dr + obstacles.shape[0],
                                             1 + dc:1 + dc + obstacles.shape[1]])
        return out

    def _movement(self, obs) -> np.ndarray:
        """Heading * magnitude, in normalised units (1.0 = max step)."""
        obstacles = self._dilate(obs.grid[0])
        data = obs.grid[1]
        centre = data.shape[0] // 2
        if data.max() <= 0:
            # Nothing visible: drift outward (away from the carrier),
            # deflecting if that heading is blocked.
            return self._clear_path(obstacles, np.array([0.7, 0.7]), centre, 1.5)
        r, c = np.unravel_index(int(np.argmax(data)), data.shape)
        # Raster rows grow with world y (no flip in the crop): +row = north.
        offset = np.array([c - centre, r - centre], dtype=float)
        if np.linalg.norm(offset) <= self.HOVER_CELLS:
            return np.zeros(2)  # already collecting: hover
        # Plan around buildings with a BFS over the (dilated-) free cells
        # of the crop — sensors hang on walls, so pure pursuit dead-ends.
        return self._plan_toward(obstacles, (r, c), centre)

    def _plan_toward(self, obstacles: np.ndarray, goal: tuple[int, int],
                     centre: int) -> np.ndarray:
        """BFS from the centre cell to the free cell nearest ``goal``."""
        from collections import deque

        size = obstacles.shape[0]
        free = obstacles < 0.5
        start = (centre, centre)
        if not free[start]:
            return np.zeros(2)  # inside the dilated margin: hold position
        parent: dict[tuple[int, int], tuple[int, int]] = {start: start}
        queue = deque([start])
        best = start
        best_gap = np.hypot(start[0] - goal[0], start[1] - goal[1])
        while queue:
            cell = queue.popleft()
            gap = np.hypot(cell[0] - goal[0], cell[1] - goal[1])
            if gap < best_gap:
                best, best_gap = cell, gap
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    nxt = (cell[0] + dr, cell[1] + dc)
                    if (0 <= nxt[0] < size and 0 <= nxt[1] < size
                            and free[nxt] and nxt not in parent):
                        parent[nxt] = cell
                        queue.append(nxt)
        if best == start:
            return np.zeros(2)  # nowhere closer to go
        # Walk the path back from the best cell; the waypoint is the last
        # path cell within one timeslot's flight range.
        path = [best]
        while path[-1] != start:
            path.append(parent[path[-1]])
        path.reverse()  # start .. best
        reach = int(max(1, np.floor(self.cells_per_step)))
        waypoint = path[min(reach, len(path) - 1)]
        delta = np.array([waypoint[1] - centre, waypoint[0] - centre], dtype=float)
        magnitude = min(1.0, np.linalg.norm(delta) / self.cells_per_step)
        norm = np.linalg.norm(delta)
        return delta / norm * magnitude if norm > 0 else np.zeros(2)

    def _clear_path(self, obstacles: np.ndarray, unit: np.ndarray, centre: int,
                    travel_cells: float) -> np.ndarray:
        """Return a normalised movement whose whole path is obstacle-free.

        Tries the desired heading first, then 45-degree deflections; for
        each candidate the path is probed cell by cell and truncated just
        before the first obstacle.
        """
        size = obstacles.shape[0]
        origin = centre + 0.5  # the UAV sits at its cell's centre
        for angle in (0.0, 0.785, -0.785, 1.571, -1.571, 2.356, -2.356, 3.1416):
            cos, sin = np.cos(angle), np.sin(angle)
            heading = np.array([unit[0] * cos - unit[1] * sin,
                                unit[0] * sin + unit[1] * cos])
            free = 0.0
            step = 0.25
            while free + step <= travel_cells + 1e-9:
                probe = free + step
                pc = int(np.floor(origin + heading[0] * probe))
                pr = int(np.floor(origin + heading[1] * probe))
                if not (0 <= pr < size and 0 <= pc < size):
                    break
                if obstacles[pr, pc] >= 0.5:
                    break
                free = probe
            if free >= 0.5:
                magnitude = min(1.0, free / self.cells_per_step)
                return heading * magnitude
        return np.zeros(2)  # boxed in: hover


class GreedyAgent:
    """Facade matching the learned agents' interface (training is a no-op)."""

    name = "Greedy"

    def __init__(self, env: AirGroundEnv, config=None, seed: int = 0,
                 release_fraction: float = 0.5):
        self.env = env
        self.ugv_policy = GreedyUGVPolicy(release_fraction)
        self.uav_policy = GreedyUAVPolicy(cell_metres=env.config.uav_obs_cell,
                                          max_step=env.config.uav_max_step)
        self.rng = np.random.default_rng(seed)

    def train(self, iterations: int, episodes_per_iteration: int = 1,
              callback=None) -> list:
        """No-op: the heuristic has nothing to learn."""
        return []

    def evaluate(self, episodes: int = 1, greedy: bool = True) -> MetricSnapshot:
        totals = np.zeros(4)
        for _ in range(episodes):
            snap = run_episode(self.env, self.ugv_policy, self.uav_policy,
                               self.rng, greedy=greedy)
            totals += np.array([snap.psi, snap.xi, snap.zeta, snap.beta])
        psi, xi, zeta, beta = totals / episodes
        return MetricSnapshot(float(psi), float(xi), float(zeta), float(beta))

    def rollout_trace(self, greedy: bool = True, seed: int | None = None) -> list[dict]:
        trace: list[dict] = []
        if seed is not None:
            self.env.reset(seed)
        run_episode(self.env, self.ugv_policy, self.uav_policy, self.rng,
                    greedy=greedy, trace=trace)
        return trace

    def save(self, directory: str | Path) -> None:
        Path(directory).mkdir(parents=True, exist_ok=True)

    def load(self, directory: str | Path) -> None:
        return None

    def state_dict(self) -> dict:
        """Resumable state: just the sampling and env rng streams."""
        from ..nn import rng_state

        return {"rng": rng_state(self.rng), "env_rng": self.env.rng_state()}

    def load_state_dict(self, state: dict) -> None:
        from ..nn import rng_from_state

        self.rng = rng_from_state(state["rng"])
        self.env.set_rng_state(state["env_rng"])
