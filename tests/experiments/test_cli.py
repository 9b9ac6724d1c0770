"""CLI tests (fast paths only; heavy experiment paths are benchmarks)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import ScalePreset, run_method
from repro.experiments.presets import PRESETS

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def tiny_preset(monkeypatch):
    """Swap the 'smoke' preset for a seconds-scale one during CLI tests."""
    tiny = ScalePreset("smoke", campus_scale=0.25, episode_len=6,
                       train_iterations=1, episodes_per_iteration=1,
                       eval_episodes=1, hidden_dim=8, ppo_epochs=1,
                       minibatch_size=16)
    monkeypatch.setitem(PRESETS, "smoke", tiny)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_args(self):
        args = build_parser().parse_args(["train", "garl", "--campus", "ucla",
                                          "--ugvs", "6"])
        assert args.method == "garl"
        assert args.campus == "ucla"
        assert args.ugvs == 6

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "alphago"])


class TestCommands:
    def test_train_prints_metrics(self, capsys):
        assert main(["train", "random", "--ugvs", "2", "--uavs", "1"]) == 0
        out = capsys.readouterr().out
        assert "λ=" in out and "random on kaist" in out

    def test_train_save_and_evaluate(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["train", "gat", "--ugvs", "2", "--uavs", "1",
                     "--iterations", "1", "--save", str(ckpt)]) == 0
        assert (ckpt / "ugv_policy.npz").exists()
        assert main(["evaluate", "gat", str(ckpt), "--ugvs", "2",
                     "--uavs", "1", "--episodes", "1"]) == 0
        assert "λ=" in capsys.readouterr().out

    def test_complexity_command(self, capsys):
        assert main(["complexity", "--methods", "gat", "random"]) == 0
        out = capsys.readouterr().out
        assert "ms/step" in out

    def test_sweep_writes_records(self, tmp_path, capsys):
        out_file = tmp_path / "records.json"
        assert main(["sweep", "--methods", "random", "--ugv-counts", "2",
                     "--uav-counts", "1", "--out", str(out_file)]) == 0
        data = json.loads(out_file.read_text())
        assert data and data[0]["method"] == "random"


class TestRenderCommand:
    def test_render_campus_only(self, tmp_path, capsys):
        out = tmp_path / "campus.svg"
        assert main(["render", "--campus", "kaist", "--out", str(out)]) == 0
        assert out.exists()
        assert out.read_text().startswith("<svg")

    def test_render_with_method_trace(self, tmp_path):
        out = tmp_path / "trace.svg"
        assert main(["render", "--campus", "kaist", "--method", "random",
                     "--out", str(out)]) == 0
        svg = out.read_text()
        assert "<polyline" in svg


class TestMethodSeed:
    def test_distinct_methods_get_distinct_seeds(self):
        from repro.experiments import method_seed

        seeds = {method_seed(m, 0) for m in ("garl", "gat", "dgn", "random")}
        assert len(seeds) == 4

    def test_deterministic(self):
        from repro.experiments import method_seed

        assert method_seed("garl", 3) == method_seed("garl", 3)


class TestCheckpointFlags:
    def test_parser_accepts_checkpoint_options(self):
        args = build_parser().parse_args(
            ["train", "garl", "--checkpoint-dir", "/tmp/run",
             "--save-every", "5", "--keep-last", "2", "--resume", "latest"])
        assert args.checkpoint_dir == "/tmp/run"
        assert args.save_every == 5
        assert args.keep_last == 2
        assert args.resume == "latest"

    def test_checkpoint_defaults(self):
        args = build_parser().parse_args(["train", "garl"])
        assert args.checkpoint_dir is None
        assert args.save_every == 10
        assert args.keep_last == 3
        assert args.resume is None

    def test_train_writes_checkpoints_and_telemetry(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(["train", "garl", "--iterations", "2",
                     "--ugvs", "2", "--uavs", "1",
                     "--checkpoint-dir", str(run_dir), "--save-every", "1"])
        assert code == 0
        assert (run_dir / "train.jsonl").exists()
        assert (run_dir / "latest").exists()
        latest = run_dir / (run_dir / "latest").read_text().strip()
        assert (latest / "manifest.json").exists()

    def test_resume_without_checkpoint_dir_fails(self):
        with pytest.raises(ValueError, match="resume"):
            main(["train", "random", "--iterations", "1", "--resume", "latest"])


@pytest.mark.parametrize("num_envs", [0, -2])
class TestNumEnvsValidation:
    def test_train_exits_nonzero_before_writing_telemetry(self, tmp_path,
                                                          num_envs):
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-m", "repro", "train", "garl", "--preset",
             "smoke", "--iterations", "1", "--num-envs", str(num_envs),
             "--checkpoint-dir", str(run_dir)],
            env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode != 0
        assert "num_envs must be >= 1" in out.stderr
        assert not (run_dir / "train.jsonl").exists()

    def test_run_method_rejects(self, num_envs):
        # ``repro profile`` trains through run_method.
        with pytest.raises(ValueError, match="num_envs must be >= 1"):
            run_method("garl", "kaist", "smoke", num_ugvs=2,
                       num_uavs_per_ugv=1, train_iterations=1,
                       num_envs=num_envs)
