"""Run one convexproj command with the benchmark's tracer installed.

Usage: python perfbench/traced_cli.py SPANS.json COMMAND [ARGS...]

The command's exit code is this process's exit code; its spans and
counters are written to SPANS.json.  The traced cold_start run starts this
script in place of `python -m convexproj`.
"""

import json
import sys

import tracer
from convexproj import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    recorder.install()
    try:
        return cli.main(argv)
    finally:
        recorder.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, handle)


if __name__ == "__main__":
    sys.exit(main())
