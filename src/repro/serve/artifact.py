"""Frozen inference artifacts: ``repro export`` and the load path.

A training checkpoint (``repro.experiments.checkpoint``) carries the full
resumable state — parameters, Adam moments, every rng stream, telemetry
cursor.  Serving needs none of that: this module freezes just the two
policy networks plus enough metadata to rebuild them *exactly* and to
validate every request against the world they were trained for.

On-disk format (one directory per artifact)::

    <artifact-dir>/
        manifest.json       # serve schema version, fingerprints, the
                            # observation/action schema, param + probe digests
        ugv_policy.npz      # UGVPolicy weights (repro.nn.save_checkpoint)
        uav_policy.npz      # UAVPolicy weights

The manifest pins three layers of identity:

* ``fingerprint`` — a :func:`~repro.experiments.checkpoint.config_fingerprint`
  over the serve schema version, the run coordinates (method, campus,
  preset, coalition, seed) and the resolved :class:`GARLConfig`; load
  recomputes and refuses on mismatch, so an artifact can never be served
  by a build that would construct a different network.
* ``params`` — byte-exact :func:`~repro.nn.serialize.state_digest` of each
  policy's weights; load re-digests after reading the npz files.
* ``probe`` — digests of both policies' outputs on a fixed synthetic
  observation batch, recorded at export *from the training-time policy
  objects*.  Load re-runs the probe through the serving forward path and
  compares byte-for-byte: equality proves the frozen artifact reproduces
  the training policy's actions bit-for-bit through the exact code path
  requests will take.

Stateful policies (IC3Net's recurrent core keeps per-episode hidden
state) are refused at export: interleaved micro-batched serving cannot
maintain per-stream recurrent state behind a shared forward.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..core.config import GARLConfig, PPOConfig
from ..env.observation import UGVObsArrays
from ..nn import load_checkpoint, no_grad, save_checkpoint
from ..nn.serialize import atomic_write_bytes, state_digest, validate_state_dict
from ..experiments.checkpoint import config_fingerprint, find_latest, read_checkpoint
from ..experiments.runner import build_agent

__all__ = ["SERVE_SCHEMA_VERSION", "ArtifactError", "FrozenPolicy",
           "export_artifact", "load_artifact"]

SERVE_SCHEMA_VERSION = 1

_MANIFEST_FILE = "manifest.json"
_UGV_FILE = "ugv_policy.npz"
_UAV_FILE = "uav_policy.npz"

# Fixed seed for the synthetic probe batch; part of the artifact contract
# (the probe digests in old manifests stay comparable across builds).
_PROBE_SEED = 20230417
_PROBE_REPLICAS = 2


class ArtifactError(RuntimeError):
    """An artifact failed validation (schema, fingerprint or digests)."""


# ----------------------------------------------------------------------
# The frozen policy pair
# ----------------------------------------------------------------------

class FrozenPolicy:
    """The two policy networks of one artifact, behind serving forwards.

    Both run the training-time batched forwards eagerly under ``no_grad``
    at the request batch's own size: ``ugv_forward`` calls
    ``forward_policy_batched`` and ``uav_forward`` the UAV CNN's
    ``forward_arrays``.
    """

    def __init__(self, ugv_policy, uav_policy, manifest: dict):
        self.ugv_policy = ugv_policy
        self.uav_policy = uav_policy
        self.manifest = manifest
        self.schema = manifest["schema"]

    # -- forwards -------------------------------------------------------
    def ugv_forward(self, obs: UGVObsArrays) -> tuple[np.ndarray, np.ndarray]:
        """Masked logits ``(P, U, B+1)`` and values ``(P, U)`` as arrays."""
        from ..core.policies import forward_policy_batched

        with no_grad():
            out = forward_policy_batched(self.ugv_policy, obs)
            return out.logits.numpy(), out.values.numpy()

    def uav_forward(self, grids: np.ndarray,
                    aux: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gaussian ``(mean, log_std, values)`` for ``(N, 3, S, S)`` crops."""
        with no_grad():
            dist, values = self.uav_policy.forward_arrays(grids, aux)
            return (dist.mean.numpy(), self.uav_policy.log_std.data.copy(),
                    values.numpy())

    def warmup(self) -> None:
        """Run one UGV and one UAV forward on the probe batch at boot."""
        obs, grids, aux = _probe_arrays(self.schema)
        self.ugv_forward(obs)
        self.uav_forward(grids, aux)

    def describe(self) -> dict:
        """Artifact identity (for /v1/artifact)."""
        # bench/layers.py:EngineProbe.summary reads the "uav_step" key.
        return {"manifest": {k: v for k, v in self.manifest.items()},
                "uav_step": {}}


# ----------------------------------------------------------------------
# Probe batch: the bit-for-bit bridge between training and serving
# ----------------------------------------------------------------------

def _probe_arrays(schema: dict, seed: int = _PROBE_SEED):
    """Synthetic observation batch fixed by ``seed`` and the schema."""
    rng = np.random.default_rng(seed)
    num_ugvs = int(schema["num_ugvs"])
    num_stops = int(schema["num_stops"])
    s = int(schema["uav_obs_size"])
    aux_dim = int(schema["uav_aux_dim"])
    num_uavs = int(schema["num_ugvs"]) * int(schema["num_uavs_per_ugv"])
    lead = (_PROBE_REPLICAS,)
    obs = UGVObsArrays(
        stop_features=rng.random(lead + (num_ugvs, num_stops, 3)),
        ugv_positions=rng.random(lead + (num_ugvs, 2)),
        ugv_stops=rng.integers(0, num_stops, lead + (num_ugvs,)),
        action_mask=np.ones(lead + (num_ugvs, num_stops + 1), dtype=bool),
    )
    grids = rng.random((num_uavs, 3, s, s))
    aux = rng.random((num_uavs, aux_dim))
    return obs, grids, aux


def _probe_digests(policy: FrozenPolicy, seed: int = _PROBE_SEED) -> dict:
    """Digest the serving forwards' outputs on the fixed probe batch."""
    obs, grids, aux = _probe_arrays(policy.schema, seed)
    logits, values = policy.ugv_forward(obs)
    mean, log_std, uav_values = policy.uav_forward(grids, aux)
    return {
        "seed": seed,
        "ugv_logits": state_digest(logits),
        "ugv_values": state_digest(values),
        "uav_mean": state_digest(mean),
        "uav_log_std": state_digest(log_std),
        "uav_values": state_digest(uav_values),
    }


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

def _resolve_checkpoint(path: str | Path) -> Path:
    """Accept either an ``iter_*`` directory or a run directory."""
    path = Path(path)
    if (path / "manifest.json").exists():
        return path
    return find_latest(path)


def _run_coordinates(manifest: dict, overrides: dict) -> dict:
    """Merge run coordinates from the checkpoint manifest and kwargs."""
    coords = {}
    for key, default in (("method", None), ("campus", None), ("preset", None),
                         ("seed", None), ("num_ugvs", 4), ("num_uavs_per_ugv", 2)):
        value = overrides.get(key)
        if value is None:
            value = manifest.get(key, default)
        if value is None:
            raise ArtifactError(
                f"checkpoint manifest does not record {key!r} (pre-serve "
                f"manifest?); pass it explicitly to export")
        coords[key] = value
    return coords


def _build_skeleton(coords: dict, garl_config: GARLConfig | None):
    """Rebuild the training-time agent shell (env + unseeded-weight nets)."""
    agent = build_agent(coords["method"], coords["campus"], coords["preset"],
                        coords["num_ugvs"], coords["num_uavs_per_ugv"],
                        coords["seed"], garl_config)
    ugv_policy = getattr(agent, "ugv_policy", None)
    uav_policy = getattr(agent, "uav_policy", None)
    if ugv_policy is None or uav_policy is None:
        raise ArtifactError(
            f"method {coords['method']!r} does not expose ugv_policy/"
            f"uav_policy modules and cannot be exported")
    for policy in (ugv_policy, uav_policy):
        if getattr(policy, "begin_episode", None) is not None:
            raise ArtifactError(
                f"method {coords['method']!r} keeps per-episode recurrent "
                f"state; stateful policies cannot serve behind an "
                f"interleaved micro-batcher")
    return agent, ugv_policy, uav_policy


def _artifact_fingerprint(coords: dict, config: GARLConfig) -> str:
    return config_fingerprint(
        {"serve_schema_version": SERVE_SCHEMA_VERSION, **coords}, config)


def export_artifact(checkpoint: str | Path, out_dir: str | Path, *,
                    method: str | None = None, campus: str | None = None,
                    preset: str | None = None, seed: int | None = None,
                    num_ugvs: int | None = None,
                    num_uavs_per_ugv: int | None = None,
                    garl_config: GARLConfig | None = None) -> Path:
    """Freeze a training checkpoint into an inference artifact directory.

    ``checkpoint`` is an ``iter_*`` checkpoint directory or a run
    directory (resolved through its ``latest`` pointer).  The run
    coordinates normally come from the checkpoint manifest; keyword
    overrides cover manifests that predate the serve fields.  The
    exported artifact is immediately loaded back through
    :func:`load_artifact` and probe-verified bit-for-bit against the
    training-time policy before this function returns.
    """
    from ..experiments.runner import method_seed
    from ..experiments.presets import get_preset

    checkpoint = _resolve_checkpoint(checkpoint)
    state, ckpt_manifest = read_checkpoint(checkpoint)
    coords = _run_coordinates(ckpt_manifest, {
        "method": method, "campus": campus, "preset": preset, "seed": seed,
        "num_ugvs": num_ugvs, "num_uavs_per_ugv": num_uavs_per_ugv})

    preset_obj = get_preset(coords["preset"])
    config = (garl_config or preset_obj.garl_config()).replace(
        seed=method_seed(coords["method"], coords["seed"]))
    agent, ugv_policy, uav_policy = _build_skeleton(coords, config)

    # Overwrite the skeleton's fresh weights with the checkpoint's.
    for name, policy in (("ugv_policy", ugv_policy), ("uav_policy", uav_policy)):
        if name not in state:
            raise ArtifactError(f"checkpoint {checkpoint} has no {name!r} state")
        params = {k: v for k, v in state[name].items()
                  if isinstance(v, np.ndarray)}
        validate_state_dict(policy, params, context=f"{checkpoint}:{name}")
        policy.load_state_dict(params)

    env_cfg = agent.env.config
    schema = {
        "num_ugvs": int(env_cfg.num_ugvs),
        "num_uavs_per_ugv": int(env_cfg.num_uavs_per_ugv),
        "num_stops": int(agent.env.stops.num_stops),
        "num_ugv_actions": int(agent.env.stops.num_stops) + 1,
        "uav_obs_size": int(env_cfg.uav_obs_size),
        "uav_aux_dim": 5,
        "uav_action_dim": 2,
        "uav_max_step": float(env_cfg.uav_max_step),
        "episode_len": int(env_cfg.episode_len),
        "campus_scale": float(preset_obj.campus_scale),
    }

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "serve_schema_version": SERVE_SCHEMA_VERSION,
        "created_unix": time.time(),
        **coords,
        "fingerprint": _artifact_fingerprint(coords, config),
        "garl_config": _config_to_json(config),
        "schema": schema,
        "training": {
            "checkpoint": str(checkpoint),
            "config_fingerprint": ckpt_manifest.get("config_fingerprint"),
            "iterations_completed": ckpt_manifest.get("iterations_completed"),
            "state_digest": ckpt_manifest.get("state_digest"),
        },
        "params": {
            "ugv_policy": state_digest(ugv_policy.state_dict()),
            "uav_policy": state_digest(uav_policy.state_dict()),
        },
    }

    # Probe through the *serving* forward path of the freshly loaded
    # weights — these objects hold exactly the training-time parameters,
    # so the recorded digests define "bit-identical to training".
    live = FrozenPolicy(ugv_policy, uav_policy, manifest)
    manifest["probe"] = _probe_digests(live)

    meta = {"fingerprint": manifest["fingerprint"],
            "serve_schema_version": SERVE_SCHEMA_VERSION}
    save_checkpoint(ugv_policy, out_dir / _UGV_FILE, {**meta, "role": "ugv_policy"})
    save_checkpoint(uav_policy, out_dir / _UAV_FILE, {**meta, "role": "uav_policy"})
    atomic_write_bytes(out_dir / _MANIFEST_FILE,
                       json.dumps(manifest, indent=1, sort_keys=True).encode())

    # Round-trip gate: a fresh load must reproduce the probe bit-for-bit.
    load_artifact(out_dir, verify=True)
    return out_dir


def _config_to_json(config: GARLConfig) -> dict:
    return asdict(config)


def _config_from_json(blob: dict) -> GARLConfig:
    blob = dict(blob)
    ppo = blob.pop("ppo", None)
    return GARLConfig(**blob, ppo=PPOConfig(**ppo) if ppo else PPOConfig())


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------

def load_artifact(directory: str | Path, verify: bool = True) -> FrozenPolicy:
    """Load an artifact directory into a :class:`FrozenPolicy`.

    Refuses (:class:`ArtifactError`) on: unknown serve schema version, a
    manifest fingerprint that does not match the network this build
    would construct, weight files whose digests drifted from the
    manifest, and — with ``verify=True`` — probe outputs that are not
    byte-identical to the ones recorded from the training-time policy.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_FILE
    if not manifest_path.exists():
        raise ArtifactError(f"no artifact manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())

    version = manifest.get("serve_schema_version")
    if version != SERVE_SCHEMA_VERSION:
        raise ArtifactError(
            f"artifact {directory} has serve schema version {version!r}; "
            f"this build serves version {SERVE_SCHEMA_VERSION}")

    coords = {k: manifest[k] for k in ("method", "campus", "preset", "seed",
                                       "num_ugvs", "num_uavs_per_ugv")}
    config = _config_from_json(manifest["garl_config"])
    expected = _artifact_fingerprint(coords, config)
    if manifest.get("fingerprint") != expected:
        raise ArtifactError(
            f"artifact {directory} fingerprint {manifest.get('fingerprint')!r} "
            f"does not match this build's {expected!r}; refusing to serve a "
            f"policy under a mismatched configuration")

    _, ugv_policy, uav_policy = _build_skeleton(coords, config)
    for name, policy, fname in (("ugv_policy", ugv_policy, _UGV_FILE),
                                ("uav_policy", uav_policy, _UAV_FILE)):
        meta = load_checkpoint(policy, directory / fname)
        if meta.get("fingerprint") != manifest["fingerprint"]:
            raise ArtifactError(
                f"{fname} was written for fingerprint "
                f"{meta.get('fingerprint')!r}, manifest says "
                f"{manifest['fingerprint']!r}")
        digest = state_digest(policy.state_dict())
        if digest != manifest["params"][name]:
            raise ArtifactError(
                f"{fname} digest {digest} does not match the manifest's "
                f"{manifest['params'][name]}; weights were modified after "
                f"export")

    policy = FrozenPolicy(ugv_policy, uav_policy, manifest)
    if verify:
        probe = manifest.get("probe")
        if not probe:
            raise ArtifactError(f"artifact {directory} records no probe digests")
        got = _probe_digests(policy, int(probe["seed"]))
        diffs = [k for k in got if got[k] != probe.get(k)]
        if diffs:
            raise ArtifactError(
                f"artifact {directory} probe mismatch on {diffs}: the frozen "
                f"policy does not reproduce the training-time outputs "
                f"bit-for-bit (code drift since export?)")
    return policy
