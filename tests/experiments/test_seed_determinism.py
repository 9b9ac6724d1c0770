"""Same-seed training is byte-reproducible end to end.

Two independent ``run_training`` invocations with identical
configuration must emit bit-identical ``train.jsonl`` telemetry — the
end-to-end contract the determinism analyzer certifies incrementally.
Checked at the default num_envs=1 and with four env replicas.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_training


def _train(tmp_path, tag: str, num_envs: int):
    out = tmp_path / tag
    record, _ = run_training("garl", "kaist", preset="smoke", num_ugvs=2,
                             num_uavs_per_ugv=1, seed=7, train_iterations=2,
                             num_envs=num_envs, checkpoint_dir=out,
                             handle_signals=False)
    return record, (out / "train.jsonl").read_bytes()


@pytest.mark.parametrize("num_envs", [1, 4])
def test_same_seed_runs_produce_identical_telemetry(tmp_path, num_envs):
    record_a, log_a = _train(tmp_path, f"a{num_envs}", num_envs)
    record_b, log_b = _train(tmp_path, f"b{num_envs}", num_envs)
    assert log_a  # telemetry actually written
    assert log_a == log_b
    assert record_a.metrics == record_b.metrics
