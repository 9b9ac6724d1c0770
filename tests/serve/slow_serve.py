"""``repro serve`` whose UGV forward sleeps first (test launcher).

    python tests/serve/slow_serve.py DELAY_S ARTIFACT [repro serve options]

Wraps :meth:`repro.serve.artifact.FrozenPolicy.ugv_forward` so that every
UGV forward, boot-time verification and warmup included, sleeps
``DELAY_S`` seconds before it runs, then hands the remaining arguments to
``repro serve``.  A UGV request therefore stays in flight for at least
``DELAY_S``, long enough for the SIGTERM drain drill to signal the real
process while the request is inside the engine.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from repro.serve.artifact import FrozenPolicy

    delay_s = float(argv[0])
    forward = FrozenPolicy.ugv_forward

    def slow_ugv_forward(policy, *args, **kwargs):
        time.sleep(delay_s)
        return forward(policy, *args, **kwargs)

    FrozenPolicy.ugv_forward = slow_ugv_forward
    return repro_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
