"""Run `ordist` with the layer wrappers installed.

Usage: python3 traced_cli.py TRACE_OUT OP_LABEL ordist-arguments...

Installs the tracer before ordist.cli.main runs, runs the command, and
writes the spans to TRACE_OUT even when the command raises, which then
propagates exactly as it would without the tracer.
"""

import sys

import ordist.cli
from tracer import MAIN, Tracer


def main() -> int:
    out, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(op)
    tracer.install()
    try:
        return tracer.wrap(MAIN, ordist.cli.main)(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
