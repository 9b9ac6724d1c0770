"""DT-rule corpus: each determinism rule fires on a known-bad snippet
and stays silent on the sanctioned alternative.

Mirrors ``test_lint_rules.py``: snippets are embedded strings with a
virtual path controlling the src/test/engine classification.
"""

from __future__ import annotations

import textwrap

from repro.analysis.determinism.rules import DT_RULES
from repro.analysis.lint import lint_source

SRC_PATH = "src/repro/demo/module.py"
TEST_PATH = "tests/demo/test_module.py"
ENGINE_PATH = "src/repro/nn/demo.py"


def codes(snippet: str, path: str = SRC_PATH) -> list[str]:
    return [d.code for d in lint_source(textwrap.dedent(snippet), path,
                                        rules=DT_RULES)]


# ----------------------------------------------------------------------
# DT001 global-rng
# ----------------------------------------------------------------------
def test_dt001_fires_on_global_stream_draws():
    bad = """
    import os
    import random
    import numpy as np

    def sample():
        a = np.random.rand(3)
        b = np.random.randint(0, 10)
        c = random.random()
        random.shuffle([1, 2])
        d = os.urandom(8)
        return a, b, c, d
    """
    assert codes(bad).count("DT001") == 5


def test_dt001_silent_on_injected_generators():
    good = """
    import numpy as np

    def sample(rng: np.random.Generator):
        fresh = np.random.default_rng(0)
        ss = np.random.SeedSequence(42)
        return rng.random(3), fresh.integers(0, 10), ss
    """
    assert codes(good) == []


def test_dt001_fires_on_module_level_rngs():
    bad = """
    import random
    import numpy as np

    _RNG = np.random.default_rng(0)
    _LEGACY: np.random.RandomState = np.random.RandomState(0)
    _STDLIB = random.Random(0)
    """
    assert codes(bad).count("DT001") == 3


def test_dt001_silent_outside_src():
    bad = """
    import numpy as np

    def sample():
        return np.random.rand(3)
    """
    assert codes(bad, TEST_PATH) == []


# ----------------------------------------------------------------------
# DT002 wall-clock-control-flow
# ----------------------------------------------------------------------
def test_dt002_fires_on_clock_branches_comparisons_and_seeds():
    bad = """
    import time
    import numpy as np
    from datetime import datetime

    def run(deadline):
        if time.time() > deadline:
            return None
        while datetime.now() < deadline:
            pass
        rng = np.random.default_rng(int(time.time_ns()))
        return rng
    """
    # branch + while-test (both are comparisons too, deduplicated) + seed
    assert codes(bad).count("DT002") == 3


def test_dt002_silent_on_telemetry_reads():
    good = """
    import time

    def run(metrics):
        t0 = time.perf_counter()
        started = time.time()
        do_work = started  # recorded, never branched on
        metrics["seconds"] = time.perf_counter() - t0
        return do_work
    """
    assert codes(good) == []


# ----------------------------------------------------------------------
# DT003 unordered-iteration
# ----------------------------------------------------------------------
def test_dt003_fires_on_set_iteration_listings_and_id_keys():
    bad = """
    import os

    def walk(groups, items):
        pending = {1, 2, 3}
        for x in pending:
            print(x)
        names = [n for n in os.listdir(".")]
        buckets = {}
        for item in items:
            buckets[id(item)] = item
        return names, buckets
    """
    # set iteration + listdir + id()-key
    assert codes(bad).count("DT003") == 3


def test_dt003_silent_when_sorted_and_on_engine_paths():
    good = """
    import os

    def walk():
        pending = {1, 2, 3}
        for x in sorted(pending):
            print(x)
        return sorted(os.listdir("."))
    """
    assert codes(good) == []
    bad = """
    def index(tensors):
        return {id(t): i for i, t in enumerate(tensors)}
    """
    assert codes(bad).count("DT003") == 1
    assert codes(bad, ENGINE_PATH) == []  # identity maps are the engine idiom


# ----------------------------------------------------------------------
# Suppression
# ----------------------------------------------------------------------
def test_inline_suppression_applies_to_dt_rules():
    src = """
    import numpy as np

    def sample():
        return np.random.rand(3)  # reprolint: disable=DT001
    """
    assert codes(src) == []
