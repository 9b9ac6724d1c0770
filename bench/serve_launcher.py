"""``repro serve`` with the benchmark's spans installed (traced mode).

    python bench/serve_launcher.py --trace-out PREFIX ARTIFACT \
        --port 0 --ready-file FILE

Wraps the public functions of the serving layers (see
:func:`bench.layers.install`), then calls
:func:`repro.serve.service.run_service` with its default knobs, as
``python -m repro serve`` does.  After SIGTERM has drained the service,
writes ``PREFIX.spans.json`` (every span) and ``PREFIX.probe.json``
(per-request engine times, engine counters, compiled-plan counters).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact")
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--ready-file", required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import layers
    from bench.spans import Tracer
    from repro.serve import service

    tracer = Tracer()
    tracer.phase = "setup"  # serving spans are told apart by their ancestors
    probe = layers.EngineProbe()
    patches = layers.install(tracer, probe)
    try:
        rc = service.run_service(args.artifact, port=args.port,
                                 ready_file=args.ready_file)
    finally:
        patches.restore()
        tracer.dump(args.trace_out.with_suffix(".spans.json"))
        args.trace_out.with_suffix(".probe.json").write_text(
            json.dumps(probe.summary()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
