"""Run one adjoint3 CLI command in this fresh interpreter, with spans.

    python trace_child.py SPANS_JSON CLI_ARG...

adjoint3 must be importable (PYTHONPATH holding the repository's src).
The command's output and exit code are the CLI's own; the spans and
counters go to SPANS_JSON when the command returns.
"""

import json
import sys

from adjoint3 import cli

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
