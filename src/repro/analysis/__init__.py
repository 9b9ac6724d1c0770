"""``repro.analysis`` — correctness tooling for the hand-written autodiff
stack.

Three pillars, one ``repro check`` meta-command (:mod:`.check`):

* **reprolint** (:mod:`repro.analysis.lint`, :mod:`repro.analysis.rules`,
  :mod:`repro.analysis.determinism.rules`) — a stdlib-``ast``
  static-analysis pass with two rule families.  The RL rules target the
  classic failure modes of this codebase: silent ``Tensor.data``
  mutation, raw ``np.*`` calls that escape the autograd graph, rollouts
  missing ``no_grad()``, half precision in the float32 models, backward
  closures capturing loop variables, bare asserts in hot paths,
  optimizer steps without ``zero_grad()``, unguarded reciprocals, and
  tensors parked on ``self`` across timesteps without ``detach()``.  The
  DT rules target nondeterminism: global RNG, wall-clock control flow,
  unordered iteration and fork-unsafe module state.  Run it with
  ``repro lint [paths]`` or the ``reprolint`` console script.

* **graphcheck** (:mod:`repro.analysis.graphcheck`) — traces one training
  step's autodiff tape into a typed graph IR and statically verifies it:
  symbolic shapes with a polymorphic batch dimension, gradient flow to
  every parameter, softmax invariants, cross-step tape growth, and
  common-subexpression reporting.  Run it with ``repro graphcheck``.

* **determinism** (:mod:`repro.analysis.determinism`) — a two-run
  runtime divergence bisector.  Run it with ``repro check-determinism``.

The **runtime numerics sanitizer** lives next to the engine in
:mod:`repro.nn.anomaly` (``repro.nn.detect_anomaly()``); see
``docs/static_analysis.md`` for the full story.
"""

from . import graphcheck
from .lint import Diagnostic, lint_paths, lint_source, main
from .rules import RULES, Rule

__all__ = ["Diagnostic", "Rule", "RULES", "lint_source", "lint_paths", "main",
           "graphcheck"]
