"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve [serve args]``.
The wrappers record in memory while the server runs; the spans are
written to SPANS_OUT when it shuts down (Ctrl-C / SIGTERM drain).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_source_tree  # noqa: E402

use_source_tree()

from spans import Tracer  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return repro_main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
