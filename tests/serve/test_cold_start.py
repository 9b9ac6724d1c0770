"""The cold-start path imports no scipy and no multiprocessing.

scipy costs ~0.3 s and ~24 MB of RSS in every process that imports it,
and nothing on the CLI, training-setup or serve-boot path needs it.
Training collects in-process, so nothing there needs multiprocessing
(and its ``connection``/``ctypes`` imports) either.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
import repro.cli
from repro.experiments.runner import build_agent
from repro.serve.artifact import load_artifact
build_agent("garl", "kaist", "smoke")
load_artifact(sys.argv[1], verify=True)
print("multiprocessing" in sys.modules)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_agent_build_and_artifact_load_import_no_scipy(artifact_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _PROBE, str(artifact_dir)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    *_, has_multiprocessing, scipy_modules = out.stdout.strip().splitlines()
    assert scipy_modules == "[]"
    assert has_multiprocessing == "False"
