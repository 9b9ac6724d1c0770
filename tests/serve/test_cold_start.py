"""The cold-start path imports no scipy.

scipy costs ~0.3 s and ~24 MB of RSS in every process that imports it,
and nothing on the CLI, training-setup or serve-boot path needs it.
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
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_agent_build_and_artifact_load_import_no_scipy(artifact_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _PROBE, str(artifact_dir)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
