"""Shared serve fixtures: one tiny trained checkpoint + its artifact,
and a per-test hang guard.

Training even one smoke iteration dominates the serve suite's runtime,
so the checkpoint and the exported artifact are session-scoped and
shared by the artifact, engine and service tests.
"""

from __future__ import annotations

import contextlib
import faulthandler
import os
import sys

import pytest

from repro.experiments.runner import run_training
from repro.serve.artifact import export_artifact, load_artifact


@pytest.fixture(scope="session")
def trained_run(tmp_path_factory):
    """A one-iteration smoke GARL run with a full-state checkpoint."""
    run_dir = tmp_path_factory.mktemp("serve_run")
    record, agent = run_training(
        "garl", "kaist", "smoke", train_iterations=1,
        checkpoint_dir=run_dir, save_every=1, handle_signals=False)
    return {"run_dir": run_dir, "agent": agent, "record": record}


@pytest.fixture(scope="session")
def artifact_dir(trained_run, tmp_path_factory):
    """The run above frozen into an inference artifact."""
    out = tmp_path_factory.mktemp("serve_artifact") / "artifact"
    export_artifact(trained_run["run_dir"], out)
    return out


@pytest.fixture(scope="session")
def frozen_policy(artifact_dir):
    return load_artifact(artifact_dir, verify=True)


@pytest.fixture(scope="session")
def real_stderr(request):
    """The terminal's stderr, which pytest's output capture does not
    swallow: a dump written there is still seen after ``os._exit``."""
    capman = request.config.pluginmanager.getplugin("capturemanager")
    with (capman.global_and_fixture_disabled() if capman is not None
          else contextlib.nullcontext()):
        stream = os.fdopen(os.dup(sys.stderr.fileno()), "w")
    yield stream
    stream.close()


@pytest.fixture(autouse=True)
def hang_guard(real_stderr):
    """Dump every thread's stack and exit if one test runs over 120 s.

    The service runs its batches on the event loop, so a forward that
    blocks stalls the whole server; this turns such a hang into a loud
    failure instead of a silent wait for the CI job's timeout.
    """
    faulthandler.dump_traceback_later(120, exit=True, file=real_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
