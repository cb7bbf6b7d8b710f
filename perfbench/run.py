"""Benchmark runner: one workload (or all three), one seed, one run.

    python3 perfbench/run.py --workload cli_oneshot --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --record-digests                 # refresh digests.json

Run it from the repository root (any directory holding ``src/thetacob`` and
``perfbench``).  It prints a table per workload, writes a result file under
``perfbench/.runs/results`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs one untraced and one traced
pass and reports the per-layer metrics.  Requests come from one client, one
at a time (closed loop).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import checks, metrics, workloads  # noqa: E402
from perfbench.client import Outcome, Session, child_env, run_process  # noqa: E402

RUNS_DIR = os.path.join(ROOT, "perfbench", ".runs")

# Passes per run at --seconds 40, 25 to 50 s of requests on a 2-core
# machine; a run makes max(1, round(PASSES_AT_40_S * seconds / 40)) passes,
# so the sample count per run is fixed by --seconds, not by how fast the
# program happens to be.  The `trace_only` requests run in traced runs
# only.
PASSES_AT_40_S = {"cli_oneshot": 2, "operations": 3, "session_ladder": 3}

SETUP_SPAWNS = 15          # set-up samples per run, spread over the run
REQUEST_TIMEOUT_S = 60.0   # a request running longer is killed and failed
RUN_BUDGET_S = 165.0       # no request starts later than this into a run
DIGEST_SEEDS = range(32)   # seeds whose outputs digests.json records

SETUP_CODE = "import thetacob.cli as c; c.build_parser()"

# The host's speed.  On a shared host, the speed drifts by up to 1.5x over
# tens of seconds, and every time in a run drifts with it.  So the run also
# times a fixed job that does not touch thetacob: interpreter start, then
# Fraction, big-int and dict work like the program's.  It runs between
# requests, at most every REFERENCE_EVERY_S and around every pass, and each
# time the run reports is scaled by REFERENCE_NOMINAL_S over the median of
# the REFERENCE_NEAREST reference latencies nearest to it in time.  A
# reported second is thus a second on a host that runs the reference job
# in REFERENCE_NOMINAL_S; the result file keeps every raw time too.
REFERENCE_NOMINAL_S = 0.1
REFERENCE_EVERY_S = 1.0
REFERENCE_NEAREST = 3
REFERENCE_CODE = ("from fractions import Fraction\n"
                  "d = {}\n"
                  "for i in range(1, 10000):\n"
                  "    k = (i % 31, i % 7)\n"
                  "    d[k] = d.get(k, 0) + Fraction(i ** 3, 7 + i % 11)\n"
                  "s = sorted(d.items())\n")


class Run:
    """One run's requests, timings and failures."""

    def __init__(self, deadline: float, store: dict):
        self.deadline = deadline
        self.store = store
        self.records: list[dict] = []
        # (midpoint on the monotonic clock, latency) of each sample
        self.setup_samples: list[tuple[float, float]] = []
        self.reference_samples: list[tuple[float, float]] = []
        self.last_reference = float("-inf")

    def record(self, pass_no: int, index: int, req: workloads.Request, out: Outcome) -> None:
        reason = checks.failure(req, out.exit, out.timed_out, out.stdout, self.store)
        self.records.append({
            "pass": pass_no, "index": index, "kind": req.kind, "argv": list(req.argv),
            "t": time.monotonic() - out.latency_s / 2,
            "latency_s": out.latency_s, "exit": out.exit, "maxrss_mb": out.maxrss_mb,
            "failure": reason, "stderr_tail": out.stderr[-400:].decode(errors="replace") if reason else "",
        })

    def skip(self, pass_no: int, index: int, req: workloads.Request) -> None:
        self.records.append({
            "pass": pass_no, "index": index, "kind": req.kind, "argv": list(req.argv),
            "latency_s": None, "exit": None, "maxrss_mb": 0.0,
            "failure": "not started: run budget spent", "stderr_tail": "",
        })

    def timeout(self) -> float:
        return min(REQUEST_TIMEOUT_S, self.deadline - time.monotonic())

    def setup_spawn(self) -> None:
        """One set-up sample, unless the run is near its budget."""
        if self.deadline - time.monotonic() < REQUEST_TIMEOUT_S:
            return
        out = run_process([sys.executable, "-c", SETUP_CODE], child_env(ROOT), ROOT, 30.0)
        if out.exit == 0:
            self.setup_samples.append((time.monotonic() - out.latency_s / 2, out.latency_s))

    def reference(self, due_only: bool = True) -> None:
        """One reference sample; with `due_only`, only when the last one
        ended REFERENCE_EVERY_S ago or more."""
        if due_only and time.monotonic() - self.last_reference < REFERENCE_EVERY_S:
            return
        if self.deadline - time.monotonic() < REQUEST_TIMEOUT_S:
            return
        out = run_process([sys.executable, "-c", REFERENCE_CODE], child_env(ROOT), ROOT, 30.0)
        self.last_reference = time.monotonic()
        if out.exit == 0:
            self.reference_samples.append((self.last_reference - out.latency_s / 2, out.latency_s))

    def scale(self, t: float) -> float:
        """REFERENCE_NOMINAL_S over the median of the reference latencies
        nearest to time `t`; 1 when the run has none."""
        if not self.reference_samples:
            return 1.0
        near = sorted(self.reference_samples, key=lambda r: abs(r[0] - t))[:REFERENCE_NEAREST]
        return REFERENCE_NOMINAL_S / statistics.median(lat for _, lat in near)


# -- passes -----------------------------------------------------------------------------


def passes_for(workload: str, seconds: int) -> int:
    return max(1, round(PASSES_AT_40_S[workload] * seconds / 40))


def oneshot_pass(run: Run, pass_no: int, reqs, trace_dir: str | None, between) -> float:
    """Each request in a fresh interpreter; returns the pass's wall time
    without the time `between` spent."""
    t0 = time.perf_counter()
    excluded = 0.0
    for i, req in enumerate(reqs):
        excluded += between()
        if run.timeout() <= 0:
            run.skip(pass_no, i, req)
            continue
        if trace_dir is None:
            cmd = [sys.executable, "-m", "thetacob.cli", *req.argv]
            env = child_env(ROOT)
        else:
            rid = f"p{pass_no}r{i}"
            cmd = [sys.executable, "-m", "perfbench.traced_cli", "--trace-out",
                   os.path.join(trace_dir, f"{rid}.json"), "--request-id", rid, "--", *req.argv]
            env = child_env(ROOT, with_bench=True)
        run.record(pass_no, i, req, run_process(cmd, env, ROOT, run.timeout()))
    return time.perf_counter() - t0 - excluded


def session_pass(run: Run, pass_no: int, reqs, trace_dir: str | None, between) -> float:
    """One long-lived interpreter serves every request; a timed-out request
    kills it and a fresh one serves the rest."""
    t0 = time.perf_counter()
    excluded = 0.0
    session, generation, peak = None, 0, 0.0
    for i, req in enumerate(reqs):
        excluded += between()
        if run.timeout() <= 0:
            run.skip(pass_no, i, req)
            continue
        if session is None:
            trace_out = None
            if trace_dir is not None:
                trace_out = os.path.join(trace_dir, f"session{generation}.json")
            generation += 1
            try:
                session = Session(ROOT, trace_out)
            except RuntimeError:
                run.record(pass_no, i, req, Outcome(None, b"", b"", 0.0, 0.0))
                continue
        out = session.call(f"p{pass_no}r{i}", req.argv, run.timeout())
        if out.exit is None:
            peak = max(peak, session.maxrss_mb)
            session = None
        run.record(pass_no, i, req, out)
    if session is not None:
        peak = max(peak, session.close())
    wall = time.perf_counter() - t0 - excluded
    for rec in run.records:
        if rec["pass"] == pass_no:
            rec["maxrss_mb"] = peak
    return wall


PASS_KIND = {"cli_oneshot": oneshot_pass, "operations": oneshot_pass, "session_ladder": session_pass}


def _no_pause() -> float:
    return 0.0


def _interleave(run: Run, total_requests: int):
    """A `between` callback that spreads SETUP_SPAWNS set-up samples evenly
    over `total_requests` requests and takes the reference samples.  It
    returns the time it spent, which the pass leaves out of its wall
    time."""
    state = {"done": 0, "seen": 0}

    def between() -> float:
        t0 = time.perf_counter()
        due = (state["seen"] + 1) * SETUP_SPAWNS // total_requests
        if state["seen"] + 1 == total_requests:
            due = SETUP_SPAWNS
        while state["done"] < due:
            run.setup_spawn()
            state["done"] += 1
        state["seen"] += 1
        run.reference()
        return time.perf_counter() - t0

    return between


# -- a run ------------------------------------------------------------------------------


def _write_inputs(reqs) -> None:
    for req in reqs:
        for rel, text in req.files:
            path = os.path.join(ROOT, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)


def _load_traces(trace_dir: str) -> list[dict]:
    traces = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as fh:
            traces.append(json.load(fh))
    return traces


def run_workload(workload: str, seed: int, seconds: int, trace: bool, store: dict) -> dict:
    start = time.monotonic()
    run = Run(start + RUN_BUDGET_S, store)
    reqs = workloads.requests_for(workload, seed)
    _write_inputs(reqs)
    do_pass = PASS_KIND[workload]
    # Warm the byte-code cache and the page cache; not measured.
    run_process([sys.executable, "-c", SETUP_CODE], child_env(ROOT), ROOT, 60.0)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(seed)}
    if not trace:
        untraced_reqs = [req for req in reqs if not req.trace_only]
        passes = passes_for(workload, seconds)
        between = _interleave(run, passes * len(untraced_reqs))
        for p in range(passes):
            run.reference(due_only=False)
            do_pass(run, p, untraced_reqs, None, between)
        run.reference(due_only=False)
        result["metrics"] = end_to_end(run, passes)
    else:
        untraced = do_pass(run, 0, reqs, None, _no_pause)
        trace_dir = os.path.join(RUNS_DIR, "spans", f"{workload}-seed{seed}")
        os.makedirs(trace_dir, exist_ok=True)
        for name in os.listdir(trace_dir):
            os.remove(os.path.join(trace_dir, name))
        traced = do_pass(run, 1, reqs, trace_dir, _no_pause)
        layer = metrics.per_layer(_load_traces(trace_dir), traced / untraced - 1.0)
        result["metrics"] = {name: {"value": layer[name], "unit": unit}
                             for name, unit in metrics.PER_LAYER.items()}
        result["spans_dir"] = os.path.relpath(trace_dir, ROOT)
        result["wall_s"] = {"untraced": untraced, "traced": traced}
    result["requests"] = run.records
    result["setup_samples"] = run.setup_samples
    result["reference_samples"] = run.reference_samples
    result["attempted"] = len(run.records)
    result["failed"] = sum(1 for r in run.records if r["failure"])
    result["elapsed_s"] = time.monotonic() - start
    return result


def request_latencies(records: list[dict], scale=lambda t: 1.0) -> list[float]:
    """Each request's latency, scaled by `scale` at its midpoint: the median
    over the passes that ran it.  A request keeps its index in every pass,
    so in a session it also meets the same cache state in every pass."""
    samples: dict[int, list[float]] = {}
    for r in records:
        if r["latency_s"] is not None:
            samples.setdefault(r["index"], []).append(r["latency_s"] * scale(r["t"]))
    return [statistics.median(samples[i]) for i in sorted(samples)]


def end_to_end(run: Run, passes: int) -> dict:
    """The six end-to-end metrics, each with its unit and sample count.
    Times are scaled to the reference host speed (see REFERENCE_CODE); the
    notes give the raw value."""
    lat = request_latencies(run.records, run.scale) or [0.0]
    raw = request_latencies(run.records) or [0.0]
    tail, pct, beyond = metrics.tail(lat)
    failed = sum(1 for r in run.records if r["failure"])
    setup = [lat_s * run.scale(t) for t, lat_s in run.setup_samples] or [0.0]
    raw_setup = [lat_s for _, lat_s in run.setup_samples] or [0.0]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(run.setup_samples),
                    "note": f"median of fresh-interpreter set-ups; raw {statistics.median(raw_setup):.4g}"},
        "wall_s": {"value": sum(lat), "unit": "s", "samples": passes,
                   "note": f"one pass, each request at its median over passes; raw {sum(raw):.4g}"},
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s", "samples": len(lat),
                          "note": f"over requests; raw {statistics.median(raw):.4g}"},
        "latency_tail_s": {"value": tail, "unit": "s", "samples": len(lat),
                           "percentile": round(pct, 2), "beyond": beyond,
                           "note": f"raw {metrics.tail(raw)[0]:.4g}"},
        "peak_rss_mb": {"value": max(r["maxrss_mb"] for r in run.records), "unit": "MB",
                        "samples": len(run.records), "note": "max over serving processes"},
        "failed_frac": {"value": failed / len(run.records), "unit": "ratio",
                        "samples": len(run.records)},
    }


# -- environment and output -------------------------------------------------------------


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    """Hash of every source file of the package, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "thetacob")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


def print_table(result: dict) -> None:
    n_fail, n = result["failed"], result["attempted"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{n} requests, {n_fail} failed, {result['elapsed_s']:.1f} s")
    for name, m in result["metrics"].items():
        extra = ""
        if "samples" in m:
            extra = f"n={m['samples']}"
        if "percentile" in m:
            extra += f" p{m['percentile']} ({m['beyond']} beyond)"
        if "note" in m:
            extra += f"  {m['note']}"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {extra}")
    for r in result["requests"]:
        if r["failure"]:
            print(f"  FAILED {' '.join(r['argv'])}: {r['failure']} {r['stderr_tail']!r}")


def write_result(result: dict, results_dir: str) -> str:
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir,
                        f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return path


def json_line(results: list[dict], prefix: bool) -> str:
    """The last stdout line.  With several workloads, metric names get the
    workload as prefix.  `failed_frac` stays in the table only: `failed` and
    `attempted` carry it, and a metric compared across commits must never
    read 0."""
    out_metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            if name == "failed_frac":
                continue
            key = f"{res['workload']}.{name}" if prefix else name
            out_metrics[key] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": out_metrics})


# -- digests ----------------------------------------------------------------------------


def record_digests(seeds) -> int:
    """Run every distinct request of every workload for `seeds` cold, in a
    fresh interpreter, and store its stdout digest and exit code."""
    entries: dict[str, dict] = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            reqs = workloads.requests_for(workload, seed)
            _write_inputs(reqs)
            for req in reqs:
                if req.key in entries:
                    continue
                out = run_process([sys.executable, "-m", "thetacob.cli", *req.argv],
                                  child_env(ROOT), ROOT, 600.0)
                if out.exit != workloads.EXPECTED_EXIT or checks.flag_failure(req, out.stdout):
                    print(f"not recorded, request fails: {' '.join(req.argv)}", file=sys.stderr)
                    return 1
                entries[req.key] = {"sha256": checks.sha256(out.stdout), "exit": out.exit}
    with open(checks.DIGESTS_FILE, "w") as fh:
        fh.write(f'{{"seeds": {json.dumps(list(seeds))},\n'
                 f' "source_sha256": "{_source_sha256()}",\n "entries": {{\n')
        fh.write(",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())))
        fh.write("\n }\n}\n")
    print(f"recorded {len(entries)} digests for seeds {seeds.start}..{seeds.stop - 1}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40,
                    help="measuring time; sets the number of passes (default 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", default=os.path.join(RUNS_DIR, "results"))
    ap.add_argument("--record-digests", action="store_true",
                    help=f"record digests.json for seeds {DIGEST_SEEDS.start}.."
                         f"{DIGEST_SEEDS.stop - 1} and exit")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "thetacob", "cli.py")):
        print(f"error: no thetacob sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(DIGEST_SEEDS)
    store = checks.load_store()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), store)
        result["result_file"] = os.path.relpath(write_result(result, args.results_dir), ROOT)
        print_table(result)
        results.append(result)
    print(json_line(results, prefix=len(results) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
