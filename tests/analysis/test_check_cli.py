"""``repro check``: the meta-command over the analysis pillars."""

from __future__ import annotations

from repro.analysis.check import _pillars, run_all


def test_pillars_are_lint_graphcheck_determinism():
    assert [name for name, _ in _pillars(["garl"])] == [
        "lint", "graphcheck", "check-determinism"]


class TestCheckMeta:
    def test_only_lint_pillar(self):
        results = run_all(only=["lint"])
        assert [r.name for r in results] == ["lint"]
        assert results[0].exit_code == 0
        assert results[0].status == "ok"
        assert results[0].seconds >= 0.0

    def test_repro_cli_check_dispatch(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["check", "--only", "lint"]) == 0
        out = capsys.readouterr().out
        assert "lint" in out
        assert "1/1 pillars clean" in out
