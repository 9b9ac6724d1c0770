"""Experiment definitions for every table and figure in Section V.

Each function returns plain :class:`ResultRecord` lists (or dicts for the
non-metric experiments) that ``repro.experiments.tables`` can format the
way the paper prints them.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines.registry import make_agent
from ..core.config import GARLConfig
from ..core.ippo import run_episode
from ..nn import no_grad
from .presets import ScalePreset, get_preset
from .records import ResultRecord
from .runner import build_env, method_seed, run_method

__all__ = [
    "layer_sweep",
    "ablation_study",
    "coalition_sweep",
    "complexity_study",
    "trajectory_study",
    "trajectory_statistics",
]


def layer_sweep(campus: str, which: str = "mc", layers: tuple[int, ...] = (1, 2, 3, 4, 5),
                preset: str | ScalePreset = "smoke", seed: int = 0) -> list[ResultRecord]:
    """Table II: efficiency vs number of MC-GCN (``which='mc'``) or
    E-Comm (``which='e'``) layers, with U=4, V'=2."""
    if which not in ("mc", "e"):
        raise ValueError("which must be 'mc' or 'e'")
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    records = []
    for count in layers:
        overrides = {"mc_gcn_layers": count} if which == "mc" else {"ecomm_layers": count}
        config = preset_obj.garl_config(**overrides)
        record = run_method("garl", campus, preset_obj, num_ugvs=4, num_uavs_per_ugv=2,
                            seed=seed, garl_config=config)
        record.extra["sweep"] = {"which": which, "layers": count}
        records.append(record)
    return records


def ablation_study(campus: str, preset: str | ScalePreset = "smoke",
                   seed: int = 0) -> list[ResultRecord]:
    """Table III: GARL vs w/o MC vs w/o E vs w/o both (U=4, V'=2)."""
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    return [
        run_method(method, campus, preset_obj, num_ugvs=4, num_uavs_per_ugv=2, seed=seed)
        for method in ("garl", "garl_wo_mc", "garl_wo_e", "garl_wo_mc_e")
    ]


def coalition_sweep(campus: str, methods: tuple[str, ...],
                    ugv_counts: tuple[int, ...] = (2, 4, 6),
                    uav_counts: tuple[int, ...] = (1, 2, 3),
                    preset: str | ScalePreset = "smoke", seed: int = 0) -> list[ResultRecord]:
    """Figs. 3-6: metrics vs number of UGVs (V'=2) and vs UAVs/UGV (U=4).

    The paper sweeps U in 2..30 and V' in 1..5 at full scale; pass larger
    tuples to widen the sweep.
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    records = []
    for method in methods:
        for u in ugv_counts:
            rec = run_method(method, campus, preset_obj, num_ugvs=u,
                             num_uavs_per_ugv=2, seed=seed)
            rec.extra["sweep"] = {"axis": "ugvs", "value": u}
            records.append(rec)
        for v in uav_counts:
            rec = run_method(method, campus, preset_obj, num_ugvs=4,
                             num_uavs_per_ugv=v, seed=seed)
            rec.extra["sweep"] = {"axis": "uavs", "value": v}
            records.append(rec)
    return records


def complexity_study(campus: str, methods: tuple[str, ...],
                     preset: str | ScalePreset = "smoke", seed: int = 0,
                     repeats: int = 20) -> list[dict]:
    """Table IV: per-timeslot UGV inference latency and model size.

    The paper reports GPU memory; without a GPU the comparable budget
    figure is parameter count (reported alongside measured CPU latency).
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    rows = []
    for method in methods:
        env = build_env(campus, preset_obj, num_ugvs=4, num_uavs_per_ugv=2, seed=seed)
        agent = make_agent(method, env, preset_obj.garl_config().replace(
            seed=method_seed(method, seed)))
        res = env.reset()
        policy = agent.ugv_policy
        begin = getattr(policy, "begin_episode", None)
        if begin is not None:
            begin()
        with no_grad():
            policy(res.ugv_observations)  # warm-up
            start = time.perf_counter()
            for _ in range(repeats):
                policy(res.ugv_observations)
            elapsed = (time.perf_counter() - start) / repeats
        params = policy.num_parameters() if hasattr(policy, "num_parameters") else 0
        rows.append({"method": method, "campus": campus,
                     "ms_per_step": elapsed * 1000.0 / env.config.num_ugvs,
                     "parameters": int(params)})
    return rows


def trajectory_study(campus: str, methods: tuple[str, ...],
                     preset: str | ScalePreset = "smoke", seed: int = 0,
                     train_iterations: int | None = None) -> dict[str, dict]:
    """Fig. 7: movement traces of UGV-UAV coalitions (U=4, V'=2).

    Returns per-method traces plus summary statistics (coverage, overlap,
    travel) that quantify what the paper shows visually.
    """
    preset_obj = get_preset(preset) if isinstance(preset, str) else preset
    out: dict[str, dict] = {}
    for method in methods:
        env = build_env(campus, preset_obj, num_ugvs=4, num_uavs_per_ugv=2, seed=seed)
        agent = make_agent(method, env, preset_obj.garl_config().replace(
            seed=method_seed(method, seed)))
        iters = train_iterations if train_iterations is not None else preset_obj.train_iterations
        agent.train(iters, preset_obj.episodes_per_iteration)
        trace = agent.rollout_trace(greedy=False, seed=seed)
        out[method] = {"trace": trace,
                       "stats": trajectory_statistics(trace, env)}
    return out


def trajectory_statistics(trace: list[dict], env) -> dict[str, float]:
    """Quantify a Fig.-7 trace: stop coverage, inter-UGV overlap, travel."""
    stops = env.stops
    num_ugvs = env.config.num_ugvs
    visited: list[set[int]] = [set() for _ in range(num_ugvs)]
    travel = 0.0
    prev = None
    for snap in trace:
        positions = snap["ugv_positions"]
        for u in range(num_ugvs):
            visited[u].add(stops.nearest_stop(positions[u]))
        if prev is not None:
            travel += float(np.linalg.norm(positions - prev, axis=-1).sum())
        prev = positions
    all_visited = set().union(*visited) if visited else set()
    pair_overlap = 0
    pairs = 0
    # Post-hoc trajectory analysis (once per study, not per step); the
    # all-pairs overlap is the statistic itself.
    for a in range(num_ugvs):
        for b in range(a + 1, num_ugvs):
            pairs += 1
            union = len(visited[a] | visited[b])
            if union:
                pair_overlap += len(visited[a] & visited[b]) / union
    return {
        "coverage": len(all_visited) / max(stops.num_stops, 1),
        "overlap": pair_overlap / max(pairs, 1),
        "ugv_travel_metres": travel,
        "stops_visited": len(all_visited),
    }
