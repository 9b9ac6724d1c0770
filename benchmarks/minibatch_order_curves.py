"""Learning curves for one checkout's UGV minibatch order.

Trains GARL on KAIST at the ``small`` preset with ``num_envs=4`` for a
few seeds and records, per seed, the wall time of training, each
iteration's UGV and UAV training reward, and a final stochastic
evaluation's efficiency λ.  The script touches only the public API
(``build_agent``, ``agent.train``, ``agent.evaluate``), so the same file
runs against any checkout's ``src``: run it once per arm and it merges
each arm into one JSON file.

    PYTHONPATH=<parent checkout>/src python benchmarks/minibatch_order_curves.py --arm parent
    PYTHONPATH=src python benchmarks/minibatch_order_curves.py --arm grouped

With both arms present, the file also gets a ``comparison`` block: for
the last-10-iteration UGV reward and the eval λ, the second arm's
3-seed mean against the first arm's mean minus two standard errors.
A full arm takes several minutes per seed on a 2-core host; it is not
part of any test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import time
from pathlib import Path

from repro.experiments import get_preset
from repro.experiments.runner import build_agent

OUTPUT = Path(__file__).parent / "output" / "minibatch_order_curves.json"
SETTING = {"method": "garl", "campus": "kaist", "preset": "small",
           "num_envs": 4, "iterations": 40, "eval_episodes": 16,
           "seeds": [1, 2, 3]}
TAIL = 10  # iterations averaged for the final training reward


def run_seed(seed: int, iterations: int, eval_episodes: int) -> dict:
    preset = get_preset(SETTING["preset"])
    agent = build_agent(SETTING["method"], SETTING["campus"], preset, seed=seed)
    start = time.perf_counter()
    history = agent.train(iterations, preset.episodes_per_iteration,
                          num_envs=SETTING["num_envs"])
    train_s = time.perf_counter() - start
    snapshot = agent.evaluate(episodes=eval_episodes, greedy=False)
    ugv = [r.ugv_reward for r in history]
    return {"train_s": train_s,
            "ugv_reward": ugv,
            "uav_reward": [r.uav_reward for r in history],
            "ugv_reward_last10": statistics.fmean(ugv[-TAIL:]),
            "eval_lambda": snapshot.efficiency}


def summarize(seeds: dict) -> dict:
    out = {}
    for key in ("ugv_reward_last10", "eval_lambda", "train_s"):
        values = [run[key] for run in seeds.values()]
        sem = (statistics.stdev(values) / math.sqrt(len(values))
               if len(values) > 1 else 0.0)
        out[key] = {"mean": statistics.fmean(values), "sem": sem,
                    "per_seed": values}
    return out


def compare(base: dict, change: dict) -> dict:
    """The change's mean against the base's mean minus two standard errors."""
    out = {}
    for key in ("ugv_reward_last10", "eval_lambda"):
        floor = base[key]["mean"] - 2.0 * base[key]["sem"]
        out[key] = {"floor": floor, "change_mean": change[key]["mean"],
                    "no_worse": change[key]["mean"] >= floor}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--arm", required=True,
                        help="label for this checkout, e.g. parent / grouped")
    parser.add_argument("--seeds", type=int, nargs="+", default=SETTING["seeds"])
    parser.add_argument("--iterations", type=int, default=SETTING["iterations"])
    parser.add_argument("--eval-episodes", type=int,
                        default=SETTING["eval_episodes"])
    parser.add_argument("--out", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)

    seeds = {}
    for seed in args.seeds:
        seeds[str(seed)] = run = run_seed(seed, args.iterations, args.eval_episodes)
        print(f"{args.arm} seed {seed}: train {run['train_s']:.1f} s, "
              f"UGV reward (last {TAIL}) {run['ugv_reward_last10']:.1f}, "
              f"eval λ {run['eval_lambda']:.4f}", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["setting"] = {**SETTING, "seeds": args.seeds,
                      "iterations": args.iterations,
                      "eval_episodes": args.eval_episodes}
    arms = doc.setdefault("arms", {})
    arms[args.arm] = {"seeds": seeds, "summary": summarize(seeds)}
    doc.pop("comparison", None)
    if len(arms) == 2:
        (base, base_arm), (change, change_arm) = arms.items()
        doc["comparison"] = {"base": base, "change": change,
                             **compare(base_arm["summary"], change_arm["summary"])}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc.get("comparison", arms[args.arm]["summary"]), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
