"""Run one ``crowdbounds`` command with tracing and save its spans.

Usage: python3 bench/cli_traced.py SPANS_JSON COMMAND [ARGS...]

Used by the traced cli-sparse rounds in place of
``python3 -m crowdbounds.cli COMMAND [ARGS...]``; the import of
``crowdbounds.cli`` is recorded as the ``cli.import`` span. It is timed
before anything else is imported, so that it includes numpy and every other
module the command needs, as in a plain ``python3 -m crowdbounds.cli``.
"""

import sys
import time

started = time.monotonic()
import crowdbounds.cli as cli  # noqa: E402
imported = time.monotonic()

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.add("cli.import", started, imported)
    replaced = tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        tracing.uninstall(replaced)
        tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
