"""Unit tests for the full-training-state checkpoint subsystem."""

import json
import os
import signal

import numpy as np
import pytest

from repro.experiments.checkpoint import (
    RESUME_EXIT_CODE,
    SCHEMA_VERSION,
    CheckpointError,
    GracefulInterrupt,
    TrainingCheckpointer,
    TrainingInterrupted,
    config_fingerprint,
    find_latest,
    flatten_state,
    load_training_checkpoint,
    read_checkpoint,
    read_manifest,
    unflatten_state,
    write_checkpoint,
)


class StubAgent:
    """Minimal agent: a dict-shaped state with one array leaf."""

    def __init__(self):
        self.state = {"iteration": 0,
                      "policy": {"w": np.arange(4.0)},
                      "rng": {"bit_generator": "PCG64"}}
        self.loaded = None

    def state_dict(self):
        return {"iteration": self.state["iteration"],
                "policy": {"w": self.state["policy"]["w"].copy()},
                "rng": dict(self.state["rng"])}

    def load_state_dict(self, state):
        self.loaded = state


class StubRecord:
    def __init__(self, iteration, efficiency=0.0):
        self.iteration = iteration
        self.metrics = {"efficiency": efficiency}
        self.losses = {}


# ----------------------------------------------------------------------
# flatten / unflatten
# ----------------------------------------------------------------------

def test_flatten_round_trip_preserves_tree_and_arrays():
    state = {
        "iteration": 7,
        "nested": {"w": np.arange(6.0).reshape(2, 3),
                   "scalars": {"lr": 1e-3, "t": np.int64(42)}},
        "streams": [{"s": np.array([1, 2])}, {"s": np.array([3, 4])}],
        "flag": np.bool_(True),
    }
    arrays, jsonable = flatten_state(state)
    # The mirror must be genuinely JSON-able (numpy scalars coerced).
    restored = unflatten_state(json.loads(json.dumps(jsonable)), arrays)
    assert restored["iteration"] == 7
    assert restored["nested"]["scalars"] == {"lr": 1e-3, "t": 42}
    assert restored["flag"] is True
    np.testing.assert_array_equal(restored["nested"]["w"], state["nested"]["w"])
    np.testing.assert_array_equal(restored["streams"][1]["s"], np.array([3, 4]))
    assert "nested/w" in arrays and "streams/0/s" in arrays


def test_flatten_rejects_non_string_keys():
    with pytest.raises(TypeError, match="strings"):
        flatten_state({3: np.zeros(2)})


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def test_config_fingerprint_is_order_insensitive_and_config_sensitive():
    base = config_fingerprint({"a": 1, "b": 2}, {"lr": 3e-4})
    assert base == config_fingerprint({"b": 2, "a": 1}, {"lr": 3e-4})
    assert base != config_fingerprint({"a": 1, "b": 2}, {"lr": 1e-3})
    assert base != config_fingerprint({"a": 1, "b": 3}, {"lr": 3e-4})


def test_config_fingerprint_handles_dataclasses():
    from repro.core.config import GARLConfig

    a = config_fingerprint(GARLConfig())
    b = config_fingerprint(GARLConfig().replace(hidden_dim=8))
    assert a != b
    assert a == config_fingerprint(GARLConfig())


# ----------------------------------------------------------------------
# write / read one checkpoint directory
# ----------------------------------------------------------------------

def test_write_read_checkpoint_round_trip(tmp_path):
    state = {"it": 3, "w": np.linspace(0, 1, 5)}
    path = write_checkpoint(tmp_path / "iter_000003", state,
                            {"iterations_completed": 3})
    loaded, manifest = read_checkpoint(path)
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["iterations_completed"] == 3
    assert "repro" in manifest["code_hashes"]
    assert loaded["it"] == 3
    np.testing.assert_array_equal(loaded["w"], state["w"])


def test_write_checkpoint_overwrites_atomically(tmp_path):
    target = tmp_path / "iter_000001"
    write_checkpoint(target, {"v": np.array([1.0])}, {})
    write_checkpoint(target, {"v": np.array([2.0])}, {})
    loaded, _ = read_checkpoint(target)
    np.testing.assert_array_equal(loaded["v"], [2.0])
    # No staging or .old residue survives a successful save.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["iter_000001"]


def test_read_manifest_rejects_wrong_schema(tmp_path):
    path = write_checkpoint(tmp_path / "iter_000001", {}, {})
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["schema_version"] = SCHEMA_VERSION + 1
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="schema version"):
        read_manifest(path)


def test_read_manifest_requires_manifest(tmp_path):
    (tmp_path / "iter_000001").mkdir()
    with pytest.raises(CheckpointError, match="manifest"):
        read_manifest(tmp_path / "iter_000001")


def test_load_training_checkpoint_rejects_fingerprint_mismatch(tmp_path):
    agent = StubAgent()
    write_checkpoint(tmp_path / "iter_000002", agent.state_dict(),
                     {"config_fingerprint": "aaaa", "iterations_completed": 2})
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_training_checkpoint(tmp_path / "iter_000002", agent,
                                 expect_fingerprint="bbbb")
    assert agent.loaded is None  # nothing moved before validation


def test_load_training_checkpoint_loads_on_match(tmp_path):
    agent = StubAgent()
    write_checkpoint(tmp_path / "iter_000002", agent.state_dict(),
                     {"config_fingerprint": "aaaa", "iterations_completed": 2})
    manifest = load_training_checkpoint(tmp_path / "iter_000002", agent,
                                        expect_fingerprint="aaaa")
    assert manifest["iterations_completed"] == 2
    np.testing.assert_array_equal(agent.loaded["policy"]["w"], np.arange(4.0))


def test_load_training_checkpoint_warns_on_code_drift(tmp_path, capsys):
    agent = StubAgent()
    path = write_checkpoint(tmp_path / "iter_000001", agent.state_dict(), {})
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["code_hashes"] = {"repro": "0" * 16}
    (path / "manifest.json").write_text(json.dumps(manifest))
    load_training_checkpoint(path, agent)
    assert "different" in capsys.readouterr().err


# ----------------------------------------------------------------------
# latest pointer / find_latest
# ----------------------------------------------------------------------

def test_find_latest_follows_pointer_and_falls_back(tmp_path):
    write_checkpoint(tmp_path / "iter_000002", {}, {})
    write_checkpoint(tmp_path / "iter_000010", {}, {})
    # No pointer: numeric fallback picks the highest iteration.
    assert find_latest(tmp_path).name == "iter_000010"
    (tmp_path / "latest").write_text("iter_000002\n")
    assert find_latest(tmp_path).name == "iter_000002"
    # Dangling pointer: fall back again rather than fail.
    (tmp_path / "latest").write_text("iter_999999\n")
    assert find_latest(tmp_path).name == "iter_000010"


def test_find_latest_raises_when_empty(tmp_path):
    with pytest.raises(CheckpointError, match="no resumable checkpoint"):
        find_latest(tmp_path)


# ----------------------------------------------------------------------
# TrainingCheckpointer: cadence, retention, interrupts
# ----------------------------------------------------------------------

def test_checkpointer_saves_on_cadence_and_final(tmp_path):
    ckpt = TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=5,
                                save_every=2, keep_last=10)
    for it in range(5):
        ckpt(StubRecord(it))
    names = sorted(p.name for p in ckpt.available())
    # Iterations 2, 4 (cadence) and 5 (final) → completed counts.
    assert names == ["iter_000002", "iter_000004", "iter_000005"]
    assert (tmp_path / "latest").read_text().strip() == "iter_000005"


def test_checkpointer_retention_keeps_best_and_latest(tmp_path):
    ckpt = TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=100,
                                save_every=1, keep_last=2)
    efficiencies = [0.1, 0.9, 0.2, 0.3, 0.4]  # best lands early, at iter 2
    for it, eff in enumerate(efficiencies):
        ckpt(StubRecord(it, efficiency=eff))
    names = sorted(p.name for p in ckpt.available())
    # Best (iter_000002) survives beyond keep_last; last two periodic kept.
    assert names == ["iter_000002", "iter_000004", "iter_000005"]
    assert ckpt.best_path.name == "iter_000002"
    assert ckpt.best_value == pytest.approx(0.9)


def test_checkpointer_rescan_adopts_existing_run(tmp_path):
    first = TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=100,
                                 save_every=1, keep_last=5)
    for it, eff in enumerate([0.5, 0.8, 0.1]):
        first(StubRecord(it, efficiency=eff))
    resumed = TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=100,
                                   save_every=1, keep_last=5)
    assert resumed.best_path.name == "iter_000002"
    assert resumed.best_value == pytest.approx(0.8)
    assert resumed.last_saved.name == "iter_000003"


def test_checkpointer_records_telemetry_cursor(tmp_path):
    class FakeTelemetry:
        count = 7

    ckpt = TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=10,
                                save_every=1, telemetry=FakeTelemetry())
    ckpt(StubRecord(0))
    assert read_manifest(ckpt.last_saved)["telemetry_cursor"] == 7


def test_checkpointer_interrupt_saves_off_cadence_and_raises(tmp_path):
    interrupt = GracefulInterrupt()
    interrupt.triggered = "SIGTERM"  # as if a signal already arrived
    ckpt = TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=100,
                                save_every=50, interrupt=interrupt)
    with pytest.raises(TrainingInterrupted) as excinfo:
        ckpt(StubRecord(2))  # iteration 2 → 3 completed, not on cadence
    err = excinfo.value
    assert err.iterations_completed == 3
    assert err.signal_name == "SIGTERM"
    assert err.checkpoint_path.name == "iter_000003"
    assert (err.checkpoint_path / "manifest.json").exists()


def test_checkpointer_validates_arguments(tmp_path):
    with pytest.raises(ValueError):
        TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=5,
                             save_every=0)
    with pytest.raises(ValueError):
        TrainingCheckpointer(tmp_path, StubAgent(), total_iterations=5,
                             keep_last=0)


# ----------------------------------------------------------------------
# GracefulInterrupt
# ----------------------------------------------------------------------

def test_graceful_interrupt_catches_real_sigterm():
    with GracefulInterrupt() as interrupt:
        assert interrupt.triggered is None
        os.kill(os.getpid(), signal.SIGTERM)
        assert interrupt.triggered == "SIGTERM"
        # Second signal escalates to an immediate KeyboardInterrupt.
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGTERM)
    # Handlers restored on exit: the default SIGTERM disposition is back.
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


def test_resume_exit_code_is_ex_tempfail():
    assert RESUME_EXIT_CODE == 75


def test_resume_refuses_float64_era_checkpoint(tmp_path):
    """A checkpoint written by a float64 build fails on its dtype when
    resumed, naming it, instead of being cast into the float32 model."""
    from repro.experiments.runner import run_training
    from repro.nn import CheckpointMismatchError

    kwargs = dict(num_ugvs=2, num_uavs_per_ugv=1, checkpoint_dir=tmp_path,
                  save_every=1, handle_signals=False)
    run_training("garl", "kaist", "smoke", train_iterations=2, **kwargs)
    state_file = tmp_path / "iter_000001" / "state.npz"
    with np.load(state_file) as data:
        arrays = {k: data[k] for k in data.files}
    assert any(v.dtype == np.float32 for v in arrays.values())
    np.savez(state_file, **{k: v.astype(np.float64) if v.dtype == np.float32 else v
                            for k, v in arrays.items()})
    with pytest.raises(CheckpointMismatchError,
                       match="checkpoint dtype float64 vs parameter dtype float32"):
        run_training("garl", "kaist", "smoke", train_iterations=2,
                     resume=tmp_path / "iter_000001", **kwargs)


def test_checkpoint_naming_a_worker_count_still_resumes(tmp_path):
    """Older checkpoints carry an informational ``num_workers`` in the
    manifest and in the trainer's ``venv`` state; they must still load,
    and the resumed run must match the uninterrupted one byte for byte."""
    import shutil

    from repro.experiments.runner import run_training

    kwargs = dict(num_ugvs=2, num_uavs_per_ugv=1, num_envs=4, save_every=1,
                  train_iterations=2, handle_signals=False)
    control = tmp_path / "control"
    run_training("garl", "kaist", "smoke", checkpoint_dir=control, **kwargs)

    legacy = tmp_path / "legacy"
    shutil.copytree(control, legacy)
    manifest_path = legacy / "iter_000001" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    venv = manifest["state"]["trainer"]["venv"]
    assert "num_workers" not in manifest and "num_workers" not in venv
    manifest["num_workers"] = 2
    venv["num_workers"] = 2
    manifest_path.write_text(json.dumps(manifest, indent=1))

    run_training("garl", "kaist", "smoke", checkpoint_dir=legacy,
                 resume=legacy / "iter_000001", **kwargs)
    assert ((legacy / "train.jsonl").read_bytes()
            == (control / "train.jsonl").read_bytes())
