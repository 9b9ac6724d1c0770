"""``repro profile`` and ``repro train --profile`` print two peaks: the
profiled window's and the whole process's, read after the Chrome trace
and the JSONL are written."""

import re

from repro.cli import main as cli_main
from repro.obs.cli import profile_training


def _peaks(text: str) -> tuple[float, float]:
    window = re.search(r"window peak RSS: ([0-9.]+) MB", text)
    process = re.search(r"process peak RSS: ([0-9.]+) MB", text)
    assert window and process, text
    return float(window.group(1)), float(process.group(1))


def test_train_profile_prints_window_and_process_peaks(tmp_path, capsys):
    assert profile_training(lambda: 42, tmp_path) == 42
    out = capsys.readouterr().out
    window, process = _peaks(out)
    assert 0 < window <= process
    assert out.index("profile written to") < out.index("process peak RSS")


def test_profile_command_prints_window_and_process_peaks(tmp_path, capsys):
    assert cli_main(["profile", "--quick", "--no-ops", "--ugvs", "2",
                     "--uavs", "1", "--trace-out",
                     str(tmp_path / "trace.json"), "--jsonl-out",
                     str(tmp_path / "profile.jsonl")]) == 0
    window, process = _peaks(capsys.readouterr().out)
    assert 0 < window <= process
