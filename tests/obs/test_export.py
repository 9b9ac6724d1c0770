"""Exporters: Chrome trace schema (golden file), JSONL, text tables."""

import json
from pathlib import Path

import pytest

from repro.obs import (
    OpProfile,
    OpStats,
    Profiler,
    chrome_trace_events,
    format_op_table,
    format_top_table,
    write_chrome_trace,
    write_profile_jsonl,
)
from repro.obs.scope import counter_add, gauge_set, histogram_observe, scope

GOLDEN = Path(__file__).parent / "data" / "chrome_trace_golden.json"


def make_profiler() -> Profiler:
    """A deterministic profiler snapshot (no real timing involved)."""
    prof = Profiler()
    prof.events = [("train", 0.0, 0.5), ("train/rollout", 0.1, 0.2)]
    prof._attributed_seconds = 0.5
    prof.wall_seconds = 0.5
    return prof


def make_ops() -> OpProfile:
    row = OpStats("matmul", "MCGCN.attention", "core.mc_gcn")
    row.calls, row.seconds, row.bytes, row.flops = 2, 0.25, 1024, 4096.0
    events = [("matmul [MCGCN.attention]", 0.05, 0.125),
              ("matmul [MCGCN.attention]", 0.3, 0.125)]
    return OpProfile([row], events, wall_seconds=0.5)


class TestChromeTraceGolden:
    def test_trace_file_matches_golden(self, tmp_path):
        """The exported file is byte-identical to the checked-in golden.

        This pins the schema: ``X``/``M`` events only, µs ``ts``/``dur``,
        fixed pid/tid lanes, the top-level ``traceEvents`` envelope.  A
        diff here means every previously written trace changed meaning —
        regenerate the golden only for a deliberate format change.
        """
        path = write_chrome_trace(tmp_path / "trace.json",
                                  make_profiler(), make_ops())
        assert path.read_text() == GOLDEN.read_text()

    def test_golden_is_valid_trace_event_json(self):
        payload = json.loads(GOLDEN.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        for ev in payload["traceEvents"]:
            assert ev["ph"] in ("X", "M")
            assert ev["pid"] == 1 and ev["tid"] in (1, 2)
            if ev["ph"] == "X":
                assert ev["ts"] >= 0 and ev["dur"] >= 0
                assert ev["cat"] in ("scope", "op")
                assert ev["name"]


class TestChromeTraceEvents:
    def test_real_profile_round_trips(self, tmp_path):
        import time

        with Profiler() as prof:
            with scope("work"):
                time.sleep(0.002)
        path = write_chrome_trace(tmp_path / "t.json", prof)
        payload = json.loads(path.read_text())
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 1
        assert xs[0]["name"] == "work"
        assert xs[0]["dur"] >= 2000  # microseconds

    def test_ops_land_on_second_lane(self):
        events = chrome_trace_events(None, make_ops())
        ops = [e for e in events if e["ph"] == "X"]
        assert all(e["tid"] == 2 and e["cat"] == "op" for e in ops)

    def test_empty_inputs_still_emit_metadata(self):
        events = chrome_trace_events(None, None)
        assert all(e["ph"] == "M" for e in events)


class TestJsonl:
    def test_line_kinds_and_meta_first(self, tmp_path):
        with Profiler() as prof:
            with scope("work"):
                counter_add("steps", 3)
                gauge_set("lr", 0.1)
                histogram_observe("loss", 0.5)
        path = write_profile_jsonl(tmp_path / "p.jsonl", prof, make_ops())
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "meta"
        assert lines[0]["scope_coverage"] == pytest.approx(prof.coverage())
        assert lines[0]["peak_rss_mb"] == prof.peak_rss_mb > 0
        work = next(l for l in lines if l["kind"] == "scope")
        assert work["path"] == "work" and work["rss_rise_mb"] >= 0.0
        kinds = {l["kind"] for l in lines}
        assert kinds == {"meta", "scope", "counter", "gauge", "histogram", "op"}
        counter = next(l for l in lines if l["kind"] == "counter")
        assert counter == {"kind": "counter", "name": "steps", "value": 3}

    def test_ops_only(self, tmp_path):
        path = write_profile_jsonl(tmp_path / "p.jsonl", None, make_ops())
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["op_calls"] == 2
        assert lines[1]["kind"] == "op"
        assert lines[1]["op"] == "matmul"


class TestTables:
    def test_top_table_mentions_scopes_and_coverage(self):
        import time

        with Profiler() as prof:
            with scope("rollout"):
                time.sleep(0.002)
        table = format_top_table(prof)
        assert "rollout" in table
        assert "attributed to named scopes" in table
        assert "%" in table

    def test_op_table_columns(self):
        table = format_op_table(make_ops())
        assert "matmul" in table
        assert "MCGCN.attention" in table
        assert "core.mc_gcn" in table
        assert "all ops" in table
        # 0.25 s of 0.5 s wall: 50% on the row, 50% on the footer.
        assert table.count("50.0%") == 2
