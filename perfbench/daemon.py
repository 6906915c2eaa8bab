"""Traced ``repro`` CLI launcher: the serve daemon with layer spans.

Usage: ``python perfbench/daemon.py SPANS_OUT serve ...`` — installs the
:mod:`spans` wrappers, runs ``repro.cli.main`` on the remaining
arguments, and when the daemon has shut down writes its spans and tallies
as JSON to *SPANS_OUT*.
"""

import json
import sys

import spans


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    out_path, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        rc = cli_main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "tallies": dict(tracer.tallies)},
                  fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
