"""Closed-loop, single-client request execution.

A one-shot request runs in a fresh interpreter; a session keeps one
long-lived interpreter (``perfbench/session_server.py``) and sends it one
request at a time.  Every request gets a timeout; a request that exceeds
it is killed and reported as failed.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass


def child_env(root: str, with_bench: bool = False) -> dict:
    """Environment of a child interpreter: the checkout's sources (and, for
    the benchmark's own helpers, the checkout root) on the path, and the
    default weight, since the program reads THETA_MAX_WEIGHT."""
    env = {k: v for k, v in os.environ.items() if k not in ("THETA_MAX_WEIGHT", "PYTHONPATH")}
    paths = [os.path.join(root, "src")] + ([root] if with_bench else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


@dataclass
class Outcome:
    """What one request produced.  ``exit`` is None when it was killed."""

    exit: int | None
    stdout: bytes
    stderr: bytes
    latency_s: float
    maxrss_mb: float
    timed_out: bool = False


def run_process(cmd: list[str], env: dict, cwd: str, timeout_s: float) -> Outcome:
    """Run `cmd` to completion, timing it from spawn to reap; kill it after
    `timeout_s`.  The peak RSS comes from the child's own rusage."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict[str, list[bytes]] = {"out": [], "err": []}
    readers = [threading.Thread(target=_drain, args=(proc.stdout, chunks["out"])),
               threading.Thread(target=_drain, args=(proc.stderr, chunks["err"]))]
    reaped: list = []
    waiter = threading.Thread(target=lambda: reaped.append(os.wait4(proc.pid, 0)))
    for th in readers + [waiter]:
        th.start()
    waiter.join(timeout_s)
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    latency = time.perf_counter() - t0
    for th in readers:
        th.join()
    _, status, usage = reaped[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(None if timed_out else proc.returncode, b"".join(chunks["out"]),
                   b"".join(chunks["err"]), latency, usage.ru_maxrss / 1024.0, timed_out)


def _drain(stream, sink: list[bytes]) -> None:
    with stream:
        for chunk in iter(lambda: stream.read(65536), b""):
            sink.append(chunk)


class Session:
    """One long-lived interpreter that serves requests in-process.

    Requests and replies are JSON lines; the server calls ``cli.main`` with
    stdout captured and keeps every cache between requests.
    """

    def __init__(self, root: str, trace_out: str | None = None):
        cmd = [sys.executable, "-m", "perfbench.session_server"]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(cmd, env=child_env(root, with_bench=True), cwd=root,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self._buf = b""
        self.maxrss_mb = 0.0
        ready = self._read_line(time.monotonic() + 60.0)
        if ready is None or json.loads(ready) != {"ready": True}:
            self.close()
            raise RuntimeError("session server did not start")

    def call(self, rid: str, argv: tuple[str, ...], timeout_s: float) -> Outcome:
        """Send one request and wait for its reply.  Its latency is the time
        the server spent in the call.  On timeout, or when the server has
        died, it is stopped and the reply has no exit code; the caller
        starts a new session for later requests."""
        t0 = time.perf_counter()
        deadline = time.monotonic() + timeout_s
        try:
            self.proc.stdin.write((json.dumps({"id": rid, "argv": list(argv)}) + "\n").encode())
            self.proc.stdin.flush()
            line = self._read_line(deadline)
        except BrokenPipeError:
            line = None
        latency = time.perf_counter() - t0
        if line is None:
            self.close()
            return Outcome(None, b"", b"", latency, self.maxrss_mb,
                           timed_out=time.monotonic() >= deadline)
        reply = json.loads(line)
        return Outcome(reply["exit"], reply["stdout"].encode(), reply["stderr"].encode(),
                       reply["elapsed_s"], 0.0)

    def _read_line(self, deadline: float) -> bytes | None:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def close(self) -> float:
        """Stop the server and return its peak RSS in MB."""
        if self.proc.returncode is None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
            try:
                _, status, usage = _wait4_with_timeout(self.proc, 30.0)
            except TimeoutError:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.maxrss_mb = usage.ru_maxrss / 1024.0
            self.proc.stdout.close()
        return self.maxrss_mb


def _wait4_with_timeout(proc, timeout_s: float):
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return pid, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError
        time.sleep(0.01)
