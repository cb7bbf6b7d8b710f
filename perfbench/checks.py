"""Output checks: stored digests where there are some, the program's own
pass flags everywhere.

``perfbench/digests.json`` maps a request key (its argv as JSON) to the
sha256 of the stdout and the exit code that a cold one-shot run of that argv
produced when the file was recorded.  Every workload's outputs are
compared with it, so an in-process session reply that differs from the cold
output of the same argv (a stale or wrongly truncated cache) is a failure.
"""

from __future__ import annotations

import hashlib
import json
import os

from .workloads import EXPECTED_EXIT, Request

DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def load_store(path: str = DIGESTS_FILE) -> dict:
    """Request key -> {"sha256", "exit"}; empty when no file was recorded."""
    try:
        with open(path) as fh:
            return json.load(fh)["entries"]
    except FileNotFoundError:
        return {}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _command(argv: tuple[str, ...]) -> tuple[str, ...]:
    return argv[2:] if argv[:1] == ("--format",) else argv


def flag_failure(req: Request, stdout: bytes) -> str | None:
    """The program's own verdict printed in `stdout`, for the commands that
    print one: quantisation round trip, FGL axioms, Weierstrass residuals
    and the acceptance suite."""
    cmd = _command(req.argv)
    if not stdout.strip():
        return "empty output"
    if cmd[0] == "quantize" and "--roundtrip" in cmd and b"dequantise-roundtrip: ok" not in stdout:
        return "roundtrip flag not ok"
    if cmd[:2] == ("fgl", "check") and b"NONZERO" in stdout:
        return "fgl residual nonzero"
    if cmd[:2] == ("weierstrass", "verify") and b"FAIL" in stdout:
        return "weierstrass check failed"
    if cmd[0] == "selftest" and (b"FAIL" in stdout or b"PASS" not in stdout):
        return "selftest criterion failed"
    return None


def failure(req: Request, exit_code: int | None, timed_out: bool, stdout: bytes,
            store: dict) -> str | None:
    """Why this request counts as failed, or None when it passed."""
    if timed_out:
        return "timeout"
    if exit_code != EXPECTED_EXIT:
        return f"exit code {exit_code}"
    entry = store.get(req.key)
    if entry is not None and (entry["sha256"] != sha256(stdout) or entry["exit"] != exit_code):
        return "stdout differs from the recorded digest"
    return flag_failure(req, stdout)
