"""The merged tree must lint clean, and the CLI entry points must work."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lint import lint_paths, main as lint_main
from repro.cli import main as cli_main

REPO = Path(__file__).resolve().parents[2]


def test_src_lints_clean():
    diagnostics = lint_paths([str(REPO / "src")])
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)


def test_tests_and_benchmarks_lint_clean():
    diagnostics = lint_paths([str(REPO / "tests"), str(REPO / "benchmarks")])
    assert diagnostics == [], "\n".join(d.format() for d in diagnostics)


def test_reprolint_main_exit_codes(tmp_path, capsys):
    assert lint_main([str(REPO / "src")]) == 0

    bad = tmp_path / "src" / "mod.py"
    bad.parent.mkdir()
    bad.write_text("def update(optimizer, loss):\n"
                   "    loss.backward()\n"
                   "    optimizer.step()\n")
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RL007" in out and "mod.py:1" in out

    assert lint_main([str(tmp_path / "missing")]) == 2


def test_cli_lint_subcommand(capsys):
    assert cli_main(["lint", str(REPO / "src")]) == 0
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RL001", "RL004", "RL008"):
        assert code in out


def test_cli_lint_runs_dt_rules(tmp_path, capsys):
    bad = tmp_path / "src" / "mod.py"
    bad.parent.mkdir()
    bad.write_text("import numpy as np\n\n\n"
                   "def draw():\n"
                   "    return np.random.rand()\n")
    assert cli_main(["lint", str(bad)]) == 1
    findings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(str(bad))]
    assert len(findings) == 1 and " DT001 " in findings[0]

    assert cli_main(["lint", "--list-rules"]) == 0
    codes = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    # RL001-RL009 and DT001-DT003, each once: DT001 is the one global-rng rule.
    assert codes == ([f"RL00{i}" for i in range(1, 10)]
                     + [f"DT00{i}" for i in range(1, 4)])
