"""Run one venomguard CLI command with the tracer installed.

Usage: python3 cli_child.py SPANS_JSON <venomguard arguments...>

The spans and counters go to SPANS_JSON when the command returns; the
exit code is the command's. Needs ``src`` on PYTHONPATH.
"""

import sys

from tracing import Tracer, write_json

import venomguard.cli as cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        write_json(spans_path, tracer.dump())


if __name__ == "__main__":
    sys.exit(main())
