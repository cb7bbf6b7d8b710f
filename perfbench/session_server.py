"""Long-lived request server for the ``session_ladder`` workload.

Reads one JSON request ``{"id", "argv"}`` per line on stdin, runs
``thetacob.cli.main(argv)`` in this process with stdout and stderr
captured, and answers ``{"id", "exit", "stdout", "stderr", "elapsed_s"}`` on
one line.  ``elapsed_s`` is the time the call took in this process: what a
library user waits for, without the pipe and the client's wake-up, which on
a busy host add noise of the order of the few milliseconds a cache hit
takes.  Caches persist between requests, as they would for a library user.  With
``--trace-out FILE`` the per-module spans are recorded and written to FILE
when stdin closes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback


def serve(stdin, stdout, tracer=None) -> None:
    from thetacob import cli

    stdout.write(json.dumps({"ready": True}) + "\n")
    stdout.flush()
    for line in stdin:
        req = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request_id = req["id"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(req["argv"])
            except SystemExit as exc:  # argparse exits on a malformed argv
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception:  # an uncaught error is the request's failure, not the server's
                traceback.print_exc()
                code = 1
        elapsed = time.perf_counter() - t0
        stdout.write(json.dumps({"id": req["id"], "exit": code, "stdout": out.getvalue(),
                                 "stderr": err.getvalue(), "elapsed_s": elapsed}) + "\n")
        stdout.flush()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace-out", help="record spans and write them to this file")
    args = ap.parse_args()
    tracer = None
    if args.trace_out:
        from perfbench.tracer import Tracer

        tracer = Tracer()
        tracer.install()
    serve(sys.stdin, sys.stdout, tracer)
    if tracer is not None:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    main()
