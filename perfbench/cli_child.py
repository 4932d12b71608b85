"""Run one minmaxent CLI command with spans recorded, then write them out.

    python3 perfbench/cli_child.py SPANS.json VERB [ARGS...]

The import of minmaxent.cli, cli.run and every wrapped call inside it are
recorded; check_certificate then runs on each SDP solve of the command.
Output and exit code are those of the command itself.
"""

import time

T_START = time.perf_counter()

import minmaxent.cli as cli  # noqa: E402  (the import is what is being timed)

T_IMPORTED = time.perf_counter()

import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.add("cli.import", T_START, T_IMPORTED)
    tracer.install()
    code = 2
    try:
        code = tracer.call("cli.run", cli.run, argv)
    finally:
        tracer.uninstall()
        tracer.check_solves()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
