"""Run the transfer-systems CLI with the benchmark's tracer installed.

    python3 bench/cli_traced.py SPANS_FILE ARGS...

behaves as ``python -m transfer_systems.cli ARGS...`` (same stdout, stderr
and exit code) and writes the spans it recorded to SPANS_FILE as JSON.
``src/`` must be on PYTHONPATH.
"""

import sys

import transfer_systems.cli as cli
from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
