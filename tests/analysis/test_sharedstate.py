"""Whole-program shared-state pass over a synthetic mini package."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.determinism.sharedstate import (
    build_shared_state_map,
)

PACKAGE = {
    "cache.py": """
        _CAMPUS = {}
        _LIMIT = 10  # never rebound: plain constant, not shared state

        def get(name):
            if name not in _CAMPUS:
                _CAMPUS[name] = name.upper()
            return _CAMPUS[name]
    """,
    "active.py": """
        _ACTIVE = None

        def activate(thing):
            global _ACTIVE
            _ACTIVE = thing
    """,
    "streams.py": """
        import numpy as np

        _RNG = np.random.default_rng(0)
    """,
    "train.py": """
        from .cache import get

        def run_training():
            return helper()

        def helper():
            return get("kaist")
    """,
    "workers.py": """
        import os

        _PLANS = {}
        os.register_at_fork(after_in_child=_PLANS.clear)

        def _worker_main(conn):
            serve(conn)

        def serve(conn):
            _PLANS["warm"] = True
            activate(conn)
    """,
}


@pytest.fixture()
def mini_root(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, src in PACKAGE.items():
        (pkg / name).write_text(textwrap.dedent(src))
    return pkg


def test_map_finds_written_and_rebound_and_rng_sites(mini_root):
    m = build_shared_state_map(mini_root)
    by_name = {s.qualified: s for s in m.sites}
    assert set(by_name) == {"cache._CAMPUS", "active._ACTIVE", "streams._RNG",
                            "workers._PLANS"}
    assert by_name["cache._CAMPUS"].value_type == "dict"
    assert by_name["active._ACTIVE"].value_type == "rebound"
    assert by_name["streams._RNG"].kind == "rng"
    # _LIMIT has no writers and is immutable -> configuration, not a site.


def test_hot_reflects_reachability_from_entrypoints(mini_root):
    m = build_shared_state_map(mini_root)
    by_name = {s.qualified: s for s in m.sites}
    # get() is reached via run_training -> helper -> get.
    assert by_name["cache._CAMPUS"].hot
    # activate() is defined but never called on the training path.
    assert not by_name["active._ACTIVE"].hot
    assert any(q.endswith(".helper") for q in m.reachable_functions)


def test_writers_record_function_and_site(mini_root):
    m = build_shared_state_map(mini_root)
    campus = next(s for s in m.sites if s.name == "_CAMPUS")
    fns = {w.function.rsplit(".", 1)[-1] for w in campus.writers}
    assert fns == {"get"}
    assert all("cache.py" in w.site for w in campus.writers)


def test_json_and_dot_artifacts(mini_root):
    m = build_shared_state_map(mini_root)
    doc = json.loads(m.to_json())
    assert doc["schema"] == "repro.sharedstate/1"
    assert doc["summary"]["sites"] == 4
    assert doc["summary"]["hot_sites"] == 1
    assert doc["summary"]["fork_guarded_sites"] == 1
    assert doc["summary"]["worker_reachable_sites"] == 2
    assert doc["worker_entrypoints"] == ["_worker_main"]
    hot = [s for s in doc["sites"] if s["hot"]]
    assert [s["name"] for s in hot] == ["_CAMPUS"]
    dot = m.to_dot()
    assert "digraph sharedstate" in dot
    assert "cache._CAMPUS" in dot and "color=red" in dot

    summary = m.format_summary()
    assert "4 site(s), 1 written on the training path" in summary
    assert "HOT cache._CAMPUS" in summary


def test_worker_reachability_and_fork_guards(mini_root):
    m = build_shared_state_map(mini_root)
    by_name = {s.qualified: s for s in m.sites}
    # _PLANS: written from serve(), reached via _worker_main -> serve.
    plans = by_name["workers._PLANS"]
    assert plans.worker_reachable
    assert not plans.hot  # never written on the training path
    assert plans.fork_guarded  # os.register_at_fork(_PLANS.clear)
    # serve() also calls activate(), so _ACTIVE is worker-writable too —
    # and has no at-fork guard.
    active = by_name["active._ACTIVE"]
    assert active.worker_reachable
    assert not active.fork_guarded
    # The campus cache is hot but nothing on the worker path writes it.
    assert not by_name["cache._CAMPUS"].worker_reachable
    # Contested-state report: hot sites minus guarded ones.  _CAMPUS is
    # hot and unguarded in the mini package, so it is the one residue.
    assert [s.qualified for s in m.fork_boundary_sites] == ["cache._CAMPUS"]
    assert any(q.endswith(".serve") for q in m.worker_reachable_functions)


def test_repo_map_lists_campus_cache_as_hot():
    """The real tree: the campus cache is the one hot site today, and the
    scalar singletons (tracer/profiler actives) appear as rebound state."""
    import repro
    from pathlib import Path

    m = build_shared_state_map(Path(repro.__file__).parent)
    names = {s.qualified for s in m.sites}
    assert "experiments.runner._CAMPUS_CACHE" in names
    assert {s.qualified for s in m.hot_sites} == {
        "experiments.runner._CAMPUS_CACHE"}
    rebound = {s.qualified for s in m.sites if s.value_type == "rebound"}
    assert "nn.tracer._ACTIVE" in rebound
    assert "obs.scope._ACTIVE" in rebound


def test_repo_fork_boundary_is_fully_guarded():
    """Every hot site in the real tree carries an at-fork guard, so a
    rollout worker can never inherit live parent state; the
    worker-reachable cache clear is audited."""
    import repro
    from pathlib import Path

    m = build_shared_state_map(Path(repro.__file__).parent)
    assert m.fork_boundary_sites == []
    by_name = {s.qualified: s for s in m.sites}
    assert by_name["experiments.runner._CAMPUS_CACHE"].fork_guarded
    # The worker bootstrap reaches the campus-cache clear.
    assert by_name["experiments.runner._CAMPUS_CACHE"].worker_reachable
