"""Run one ``taukit`` command with spans installed, then print the span totals.

Usage: python3 perfbench/tracecli.py <taukit arguments...>
The command's stdout and exit code are the untraced command's; its stderr
is followed by one more line, the span totals as JSON, even if the command
raises or exits early.
"""

from __future__ import annotations

import json
import sys

import taukit.cli

import spans


def main():
    tracer = spans.Tracer()
    try:
        with spans.installed(tracer):
            return taukit.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(json.dumps(tracer.totals()), file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
