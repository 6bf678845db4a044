"""``repro-mergesort serve --port 0`` with the benchmark's tracing wrappers.

    python benchmarks/e2e/traced_serve.py SPANS_FILE

Installs the same wrappers as the traced caller (:mod:`tracing`), serves
until ``POST /shutdown``, then writes the daemon's spans to ``SPANS_FILE``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

sys.path.insert(0, str(harness.SRC))

import tracing  # noqa: E402


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    tracer = tracing.Tracer().install()
    try:
        from repro.cli import main as cli_main

        return cli_main(["serve", "--port", "0"])
    finally:
        tracer.restore()
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main())
