"""Positive/negative corpus tests for the PF performance lint rules.

Each rule gets at least one snippet that must fire and one that must
stay silent; the corpus runs through ``lint_source(..., rules=PF_RULES)``
so suppression and line anchoring behave exactly as in production.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint import lint_source
from repro.analysis.perfcheck import build_hot_index
from repro.analysis.perfcheck.rules import PF_RULES, build_pf_rules


def run(source: str, path: str = "src/module.py") -> list:
    return lint_source(textwrap.dedent(source), path, rules=PF_RULES)


def codes(source: str, path: str = "src/module.py") -> list[str]:
    return [d.code for d in run(source, path)]


# ----------------------------------------------------------------------
# PF001 — per-step-array-rebuild
# ----------------------------------------------------------------------
class TestPF001:
    def test_fires_on_comprehension_over_entities(self):
        src = """
            import numpy as np
            def remaining(self):
                return np.array([s.remaining for s in self.sensors])
        """
        assert "PF001" in codes(src)

    def test_fires_on_generator_into_fromiter(self):
        src = """
            import numpy as np
            def stops(self):
                return np.fromiter((g.stop for g in self.ugvs), dtype=int)
        """
        assert "PF001" in codes(src)

    def test_silent_in_lifecycle_methods(self):
        src = """
            import numpy as np
            class Env:
                def __init__(self):
                    self.pos = np.array([s.position for s in self.sensors])
                def reset_state(self):
                    self.rem = np.array([s.remaining for s in self.sensors])
        """
        assert "PF001" not in codes(src)

    def test_silent_on_non_entity_iterables(self):
        src = """
            import numpy as np
            def rows(self):
                return np.array([r * 2 for r in self.rows_of_table])
        """
        assert "PF001" not in codes(src)

    def test_suppression_comment_silences(self):
        src = """
            import numpy as np
            def remaining(self):
                return np.array([s.remaining for s in self.sensors])  # reprolint: disable=PF001
        """
        assert "PF001" not in codes(src)


# ----------------------------------------------------------------------
# PF002 — alloc-in-hot-loop
# ----------------------------------------------------------------------
class TestPF002:
    def test_fires_on_alloc_inside_loop(self):
        src = """
            import numpy as np
            def step(self):
                for uav in self.uavs:
                    buf = np.zeros(4)
        """
        assert "PF002" in codes(src)

    def test_silent_when_alloc_outside_loop(self):
        src = """
            import numpy as np
            def step(self):
                buf = np.zeros(4)
                for uav in self.uavs:
                    buf[:] = 0
        """
        assert "PF002" not in codes(src)

    def test_cold_function_exempt_with_real_hot_index(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        mod = pkg / "mod.py"
        mod.write_text(textwrap.dedent("""
            import numpy as np
            def run_training():
                hot_helper()
            def hot_helper():
                for i in range(3):
                    x = np.zeros(3)
            def cold_plotting():
                for i in range(3):
                    x = np.zeros(3)
        """))
        hot = build_hot_index(pkg)
        rules = build_pf_rules(hot)
        diags = lint_source(mod.read_text(), str(mod), rules=rules)
        lines = {d.line for d in diags if d.code == "PF002"}
        source_lines = mod.read_text().splitlines()
        flagged = {source_lines[line - 1].strip() for line in lines}
        assert flagged == {"x = np.zeros(3)"}
        # Only the hot helper's allocation (first occurrence) is flagged.
        assert len(lines) == 1
        assert min(lines) < source_lines.index("def cold_plotting():") + 1

    def test_no_duplicate_findings_for_nested_defs(self):
        src = """
            import numpy as np
            def outer(self):
                def inner():
                    for i in range(3):
                        x = np.zeros(3)
                return inner
        """
        assert codes(src).count("PF002") == 1


# ----------------------------------------------------------------------
# PF003 — python-elementwise-loop
# ----------------------------------------------------------------------
class TestPF003:
    def test_fires_on_element_indexing_by_loop_var(self):
        src = """
            import numpy as np
            def total(self):
                acc = np.zeros(8)
                out = np.zeros(8)
                for i in range(8):
                    out[i] = acc[i] * 2
        """
        assert "PF003" in codes(src)

    def test_silent_on_slice_access(self):
        src = """
            import numpy as np
            def minibatches(self, n):
                order = np.arange(n)
                for start in range(0, n, 4):
                    batch = order[start:start + 4]
        """
        assert "PF003" not in codes(src)

    def test_silent_on_column_slice(self):
        src = """
            import numpy as np
            def per_agent(self):
                rewards = np.zeros((8, 3))
                for agent in range(3):
                    col = rewards[:, agent]
        """
        assert "PF003" not in codes(src)

    def test_silent_without_ndarray_evidence(self):
        src = """
            def total(self, items):
                for i in range(len(items)):
                    items[i] += 1
        """
        assert "PF003" not in codes(src)


# ----------------------------------------------------------------------
# PF004 — quadratic-entity-scan
# ----------------------------------------------------------------------
class TestPF004:
    def test_fires_on_nested_entity_loops(self):
        src = """
            def pair_scan(self):
                for ugv in self.ugvs:
                    for uav in self.uavs:
                        check(ugv, uav)
        """
        assert "PF004" in codes(src)

    def test_fires_on_per_entity_distance_scan(self):
        src = """
            import numpy as np
            def collect(self):
                positions = self.sensor_positions
                for uav in self.uavs:
                    gaps = np.hypot(positions[:, 0] - uav.x, positions[:, 1] - uav.y)
        """
        assert "PF004" in codes(src)

    def test_fires_on_product_comprehension(self):
        src = """
            def pairs(self):
                return [(g, v) for g in self.ugvs for v in self.uavs]
        """
        assert "PF004" in codes(src)

    def test_silent_on_single_entity_loop(self):
        src = """
            def names(self):
                return [u.name for u in self.uavs]
        """
        assert "PF004" not in codes(src)

    def test_silent_in_lifecycle_methods(self):
        src = """
            class Env:
                def reset_state(self):
                    for u in self.ugvs:
                        for v in self.uavs:
                            v.dock(u)
        """
        assert "PF004" not in codes(src)


# ----------------------------------------------------------------------
# PF005 — dtype-promotion-copy
# ----------------------------------------------------------------------
class TestPF005:
    def test_fires_on_mixed_dtype_binop(self):
        src = """
            import numpy as np
            def mix(self):
                small = np.zeros(4, dtype=np.float32)
                big = np.zeros(4)
                return small + big
        """
        assert "PF005" in codes(src)

    def test_silent_when_dtypes_agree(self):
        src = """
            import numpy as np
            def same(self):
                a = np.zeros(4)
                b = np.ones(4)
                return a + b
        """
        assert "PF005" not in codes(src)

    def test_astype_reclassifies(self):
        src = """
            import numpy as np
            def promoted(self):
                small = np.zeros(4, dtype=np.float32)
                small = small.astype(np.float64)
                big = np.zeros(4)
                return small + big
        """
        assert "PF005" not in codes(src)


# ----------------------------------------------------------------------
# Framework integration
# ----------------------------------------------------------------------
class TestFramework:
    def test_rules_are_src_only(self):
        for rule in PF_RULES:
            assert rule.src_only

    def test_rule_codes_unique_and_named(self):
        seen = {r.code for r in PF_RULES}
        assert seen == {"PF001", "PF002", "PF003", "PF004", "PF005"}

    def test_test_files_exempt(self):
        src = """
            import numpy as np
            def helper(self):
                return np.array([s.remaining for s in self.sensors])
        """
        assert codes(src, path="tests/test_helper.py") == []


# ----------------------------------------------------------------------
# PF005 audit: the codebase carries no PF005 suppressions, and none
# should appear.
# ----------------------------------------------------------------------
def test_no_pf005_suppressions_in_source():
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    offenders = [str(p) for p in src.rglob("*.py")
                 if "disable=PF005" in p.read_text()]
    assert offenders == []
