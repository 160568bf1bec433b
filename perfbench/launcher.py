"""Run one qmetric CLI invocation, optionally traced.

    python3 perfbench/launcher.py SUBCOMMAND [ARGS...]

Imports qmetric from the checkout's ``src`` and calls ``qmetric.cli.main``
with the arguments, exiting with its return code. When the environment names
a trace file in ``PERFBENCH_TRACE``, the launcher wraps qmetric's public
functions first, records a span ``cli.<SUBCOMMAND>`` around ``main`` and
writes the spans to that file as JSON lines before it exits.
"""

from __future__ import annotations

import os
import sys

from common import import_qmetric, pin_blas_threads
from tracer import Tracer


def main(argv: list[str]) -> int:
    pin_blas_threads()
    import_qmetric()
    import qmetric.cli

    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        return qmetric.cli.main(argv)
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span(f"cli.{argv[0]}", qmetric.cli.main)(argv)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
