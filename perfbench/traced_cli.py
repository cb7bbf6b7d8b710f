"""Run one thetacob CLI call with the per-module tracer installed.

    python -m perfbench.traced_cli --trace-out FILE --request-id ID -- ARGV...

Stdout, stderr and the exit code are those of ``thetacob.cli.main(ARGV)``;
the spans are written to FILE when the call returns.
"""

from __future__ import annotations

import argparse
import sys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("--request-id", required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from thetacob import cli
    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.request_id = args.request_id
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(args.trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
