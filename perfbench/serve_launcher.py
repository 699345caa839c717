"""Start ``repro serve`` with the serving layers traced.

Usage::

    python3 perfbench/serve_launcher.py OUT.json serve --model M --port 0 ...

Installs the span wrappers of :data:`spans.SERVE_LAYERS`, then calls the
CLI's own ``main`` with the remaining arguments.  When the server stops
(SIGINT), it writes ``{layer: {"calls": n, "p50_us": x}}`` to OUT.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import SERVE_LAYERS, Tracer  # noqa: E402


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from repro import cli

    tracer = Tracer(keep_samples=True)
    tracer.install(SERVE_LAYERS)
    try:
        return cli.main(cli_args)
    finally:
        doc = {
            name: {
                "calls": len(samples),
                "p50_us": statistics.median(samples) * 1e6,
            }
            for name, samples in tracer.samples.items()
        }
        with open(out_path, "w") as f:
            json.dump(doc, f)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
