"""Rule-by-rule corpus: each rule fires on a known-bad snippet and stays
silent on a known-good one.

Snippets are embedded strings (not real files) so the repo-wide lint run
never sees them; ``lint_source`` takes a virtual path that controls the
src/test classification.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_source

SRC_PATH = "src/repro/demo/module.py"
TEST_PATH = "tests/demo/test_module.py"


def codes(snippet: str, path: str = SRC_PATH) -> list[str]:
    return [d.code for d in lint_source(textwrap.dedent(snippet), path)]


# ----------------------------------------------------------------------
# RL001 tensor-state-mutation
# ----------------------------------------------------------------------
def test_rl001_fires_on_data_mutation():
    bad = """
    def tweak(param):
        param.data = param.data * 2
        param.grad[0] = 0.0
        param.data[-1] += 1.0
    """
    assert codes(bad).count("RL001") == 3


def test_rl001_silent_on_engine_paths_and_good_code():
    bad = """
    def tweak(param):
        param.data = param.data * 2
    """
    assert codes(bad, "src/repro/nn/optim.py") == []
    good = """
    def tweak(param, optimizer):
        optimizer.step()
        value = param.data.copy()
    """
    assert codes(good) == []


# ----------------------------------------------------------------------
# RL002 raw-numpy-on-tensor
# ----------------------------------------------------------------------
def test_rl002_fires_on_np_math_over_tensor():
    bad = """
    import numpy as np
    from repro.nn import Tensor

    def forward(x):
        h = Tensor(x)
        return np.exp(h)
    """
    assert "RL002" in codes(bad)


def test_rl002_tracks_annotations_and_reassignment():
    bad = """
    import numpy as np

    def forward(x: "Tensor"):
        return np.tanh(x)
    """
    assert "RL002" in codes(bad)
    good = """
    import numpy as np

    def forward(x: "Tensor"):
        x = x.numpy()
        return np.tanh(x)
    """
    assert codes(good) == []


def test_rl002_silent_on_tensor_methods():
    good = """
    from repro.nn import Tensor

    def forward(x):
        h = Tensor(x)
        return h.exp().log()
    """
    assert codes(good) == []


# ----------------------------------------------------------------------
# RL003 missing-no-grad
# ----------------------------------------------------------------------
def test_rl003_fires_on_rollout_without_no_grad():
    bad = """
    def evaluate_policy(policy, observations):
        out = policy(observations)
        return out.values.numpy()
    """
    assert "RL003" in codes(bad)


def test_rl003_silent_with_no_grad_or_training():
    good = """
    from repro.nn import no_grad

    def evaluate_policy(policy, observations):
        with no_grad():
            out = policy(observations)
        return out.values.numpy()
    """
    assert codes(good) == []
    training = """
    def act_and_learn(policy, observations, loss):
        out = policy(observations)
        loss.backward()
        return out
    """
    assert codes(training) == []


# ----------------------------------------------------------------------
# RL004 float32-drift
# ----------------------------------------------------------------------
def test_rl004_fires_on_reduced_precision():
    bad = """
    import numpy as np

    def make(x):
        a = np.zeros(3, dtype=np.float32)
        b = x.astype("float32")
        return a, b
    """
    assert codes(bad).count("RL004") == 2


def test_rl004_silent_on_float64():
    good = """
    import numpy as np

    def make(x):
        return np.zeros(3, dtype=np.float64)
    """
    assert codes(good) == []


# ----------------------------------------------------------------------
# RL005 backward-loop-capture (applies to tests too)
# ----------------------------------------------------------------------
def test_rl005_fires_on_loop_variable_capture():
    bad = """
    def build(tensors, out):
        for t in tensors:
            def _backward(out):
                t._accumulate(out.grad)
            out._backward = _backward
    """
    assert "RL005" in codes(bad)
    assert "RL005" in codes(bad, TEST_PATH)


def test_rl005_silent_when_bound_by_default_arg():
    good = """
    def build(tensors, out):
        for t in tensors:
            def _backward(out, t=t):
                t._accumulate(out.grad)
            out._backward = _backward
    """
    assert codes(good) == []


# ----------------------------------------------------------------------
# RL006 bare-assert
# ----------------------------------------------------------------------
def test_rl006_fires_in_src_but_not_tests():
    bad = """
    def collect(metrics):
        assert metrics is not None
        return metrics
    """
    assert "RL006" in codes(bad)
    assert codes(bad, TEST_PATH) == []


def test_rl006_silent_on_explicit_raise():
    good = """
    def collect(metrics):
        if metrics is None:
            raise RuntimeError("no metrics")
        return metrics
    """
    assert codes(good) == []


# ----------------------------------------------------------------------
# RL007 missing-zero-grad
# ----------------------------------------------------------------------
def test_rl007_fires_on_step_without_zero_grad():
    bad = """
    def update(optimizer, loss):
        loss.backward()
        optimizer.step()
    """
    assert "RL007" in codes(bad)


def test_rl007_silent_with_zero_grad_or_env_step():
    good = """
    def update(optimizer, loss):
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    """
    assert codes(good) == []
    env_only = """
    def rollout_env(env, loss):
        loss.backward()
        env.step()
    """
    assert "RL007" not in codes(env_only)


# ----------------------------------------------------------------------
# RL008 unguarded-reciprocal
# ----------------------------------------------------------------------
def test_rl008_fires_on_bare_reciprocal():
    bad = """
    def weights(distances):
        return 1.0 / distances
    """
    assert "RL008" in codes(bad)


def test_rl008_silent_with_epsilon_guard():
    good = """
    import numpy as np

    def weights(distances):
        inv = 1.0 / (distances + 1e-6)
        safe = 1.0 / np.maximum(distances, 1e-12)
        return inv, safe
    """
    assert codes(good) == []


# ----------------------------------------------------------------------
# RL009 tensor-attr-tape-leak
# ----------------------------------------------------------------------
def test_rl009_fires_on_graph_attached_state():
    bad = """
    from repro.nn import Module

    class Recurrent(Module):
        def forward(self, x):
            h = self.cell(x)
            self.hidden = h
            self.cache = self.hidden + x
            return h
    """
    assert codes(bad).count("RL009") == 2


def test_rl009_silent_on_detached_or_lifecycle_stores():
    good = """
    import numpy as np
    from repro.nn import Module, Tensor

    class Recurrent(Module):
        def __init__(self):
            super().__init__()
            self.hidden = None

        def reset(self):
            self.hidden = self.cell.init_state()

        def forward(self, x):
            h = self.cell(x)
            self.hidden = Tensor(h.numpy().copy())
            self.count = 3
            return h
    """
    assert codes(good) == []


def test_rl009_only_applies_to_modules_in_src():
    non_module = """
    class Buffer:
        def forward(self, x):
            self.last = self.cell(x)
            return self.last
    """
    assert codes(non_module) == []
    in_test = """
    from repro.nn import Module

    class Recurrent(Module):
        def forward(self, x):
            self.hidden = self.cell(x)
            return self.hidden
    """
    assert codes(in_test, TEST_PATH) == []


# ----------------------------------------------------------------------
# Suppression + infrastructure
# ----------------------------------------------------------------------
def test_inline_suppression_by_code_and_bare():
    by_code = """
    def tweak(param):
        param.data = 0.0  # reprolint: disable=RL001
    """
    assert codes(by_code) == []
    bare = """
    def tweak(param):
        param.data = 0.0  # reprolint: disable
    """
    assert codes(bare) == []
    wrong_code = """
    def tweak(param):
        param.data = 0.0  # reprolint: disable=RL008
    """
    assert "RL001" in codes(wrong_code)


def test_syntax_error_reports_rl000():
    assert codes("def broken(:\n    pass") == ["RL000"]


def test_diagnostic_format_is_clickable():
    diags = lint_source("def f(p):\n    p.data = 1\n", SRC_PATH)
    assert len(diags) == 1
    text = diags[0].format()
    assert text.startswith(f"{SRC_PATH}:2:")
    assert "RL001" in text and "[tensor-state-mutation]" in text
