"""Export → load round trip: bitwise equality and the refusal matrix."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.nn import CheckpointMismatchError, no_grad
from repro.serve.artifact import (
    SERVE_SCHEMA_VERSION,
    ArtifactError,
    _probe_arrays,
    export_artifact,
    load_artifact,
)


def test_manifest_records_identity(artifact_dir):
    manifest = json.loads((artifact_dir / "manifest.json").read_text())
    assert manifest["serve_schema_version"] == SERVE_SCHEMA_VERSION
    assert manifest["method"] == "garl"
    assert manifest["campus"] == "kaist"
    assert manifest["num_ugvs"] == 4 and manifest["num_uavs_per_ugv"] == 2
    assert manifest["schema"]["num_ugv_actions"] == manifest["schema"]["num_stops"] + 1
    assert set(manifest["params"]) == {"ugv_policy", "uav_policy"}
    assert manifest["probe"]["ugv_logits"]
    assert manifest["training"]["config_fingerprint"]


def test_roundtrip_bitwise_vs_live_policy(trained_run, frozen_policy):
    """The frozen forwards reproduce the training agent's outputs exactly."""
    agent = trained_run["agent"]
    obs, grids, aux = _probe_arrays(frozen_policy.schema)

    logits, values = frozen_policy.ugv_forward(obs)
    with no_grad():
        live = agent.ugv_policy.forward_batched(obs)
    np.testing.assert_array_equal(logits, live.logits.numpy())
    np.testing.assert_array_equal(values, live.values.numpy())

    mean, log_std, uav_values = frozen_policy.uav_forward(grids, aux)
    with no_grad():
        dist, live_values = agent.uav_policy.forward_arrays(grids, aux)
    np.testing.assert_array_equal(mean, dist.mean.numpy())
    np.testing.assert_array_equal(log_std, agent.uav_policy.log_std.data)
    np.testing.assert_array_equal(uav_values, live_values.numpy())


@pytest.mark.parametrize("n", range(1, 9))
def test_served_uav_forward_equals_trained_at_batch_size(trained_run,
                                                        frozen_policy, n):
    """At every batch size the served UAV forward is the training-time
    ``forward_arrays`` at that size, bit for bit."""
    uav_policy = trained_run["agent"].uav_policy
    _, grids, aux = _probe_arrays(frozen_policy.schema)
    mean, log_std, values = frozen_policy.uav_forward(grids[:n], aux[:n])
    with no_grad():
        dist, live_values = uav_policy.forward_arrays(grids[:n], aux[:n])
    assert mean.tobytes() == dist.mean.numpy().tobytes()
    assert log_std.tobytes() == uav_policy.log_std.data.tobytes()
    assert values.tobytes() == live_values.numpy().tobytes()


def _tamper(artifact_dir, tmp_path, mutate):
    import shutil

    copy = tmp_path / "tampered"
    shutil.copytree(artifact_dir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    mutate(copy, manifest)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy


def test_refuses_wrong_schema_version(artifact_dir, tmp_path):
    def bump(_copy, manifest):
        manifest["serve_schema_version"] = SERVE_SCHEMA_VERSION + 1

    with pytest.raises(ArtifactError, match="serve schema version"):
        load_artifact(_tamper(artifact_dir, tmp_path, bump))


def test_refuses_mismatched_config_fingerprint(artifact_dir, tmp_path):
    """A manifest whose config would build a different net is rejected."""
    def drift(_copy, manifest):
        manifest["garl_config"]["hidden_dim"] += 1

    with pytest.raises(ArtifactError, match="fingerprint"):
        load_artifact(_tamper(artifact_dir, tmp_path, drift))


def test_refuses_tampered_weights(artifact_dir, tmp_path):
    def corrupt(copy, _manifest):
        path = copy / "uav_policy.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        key = next(k for k in arrays if k.startswith("param::"))
        arrays[key] = arrays[key] + 1e-3
        np.savez(path, **arrays)

    with pytest.raises(ArtifactError, match="digest"):
        load_artifact(_tamper(artifact_dir, tmp_path, corrupt))


def test_refuses_float64_era_weights(artifact_dir, tmp_path):
    """Weights exported by a float64 build fail on their dtype, before
    any digest or probe comparison, and are never cast."""
    def upcast(copy, _manifest):
        for name in ("ugv_policy.npz", "uav_policy.npz"):
            path = copy / name
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files}
            for key in arrays:
                if key.startswith("param::"):
                    arrays[key] = arrays[key].astype(np.float64)
            np.savez(path, **arrays)

    with pytest.raises(CheckpointMismatchError,
                       match="checkpoint dtype float64 vs parameter dtype float32"):
        load_artifact(_tamper(artifact_dir, tmp_path, upcast))


def test_refuses_stateful_policy(trained_run, tmp_path):
    """IC3Net's recurrent policy cannot sit behind the micro-batcher."""
    with pytest.raises(ArtifactError, match="recurrent|stateful"):
        export_artifact(trained_run["run_dir"], tmp_path / "a",
                        method="ic3net")


def test_export_from_specific_iter_dir(trained_run, tmp_path):
    iters = sorted(trained_run["run_dir"].glob("iter_*"))
    assert iters
    out = export_artifact(iters[-1], tmp_path / "from_iter")
    load_artifact(out, verify=True)
