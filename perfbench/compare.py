"""Compare two sets of benchmark results.  A report, not a gate.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``perfbench/run.py`` (see its
``--results-dir``), typically one per seed.  For each workload and metric
it prints both sides' median and quartiles, the ratio of the medians, the
share of runs paired by seed that the new side won (ties count for
neither) and a verdict.  When either side's run-to-run spread (quartile
distance over median) exceeds the metric's bound from BENCHMARK.json, the
verdict is "better" or "worse" only if every new run beats, or loses to,
every base run, and "unresolved" otherwise.  Otherwise it is "worse" when
the new median is worse by more than the bound, "better" when it is better
by more than the bound, and "same" in between.  Per-layer metrics have no
bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.metrics import quartiles, spread  # noqa: E402


def load_results(directory: str) -> dict:
    """(workload, trace) -> metric -> seed -> value."""
    out: dict = defaultdict(lambda: defaultdict(dict))
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as fh:
            res = json.load(fh)
        for metric, m in res["metrics"].items():
            out[(res["workload"], res["trace"])][metric][res["seed"]] = m["value"]
    return out


def load_spec(path: str) -> dict:
    """metric name -> {"better", "bound"?} from BENCHMARK.json."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return {}
    return {m["name"]: m for m in doc.get("end_to_end", []) + doc.get("per_layer", [])}


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    sign = -1.0 if better == "higher" else 1.0  # compare as "lower is better"
    b, n = [sign * x for x in base], [sign * x for x in new]
    if max(spread(base), spread(new)) > bound:
        if max(n) < min(b):
            return "better"
        if min(n) > max(b):
            return "worse"
        return "unresolved"
    change = sign * (quartiles(new)[1] / quartiles(base)[1] - 1.0)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def report(base: dict, new: dict, spec: dict) -> list[str]:
    lines = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        lines.append(f"{workload} (trace {trace})")
        lines.append(f"  {'metric':<42} {'base median [q1, q3]':>32} {'new median [q1, q3]':>32}"
                     f" {'new/base':>9} {'new won':>8}  verdict")
        for metric in base[key]:
            if metric not in new[key]:
                continue
            b, n = base[key][metric], new[key][metric]
            seeds = sorted(set(b) & set(n))
            better = spec.get(metric, {}).get("better", "lower")
            wins = sum(1 for s in seeds if (n[s] > b[s] if better == "higher" else n[s] < b[s]))
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            ratio = nq[1] / bq[1] if bq[1] else float("nan")
            won = f"{wins}/{len(seeds)}" if seeds else "-"
            lines.append(
                f"  {metric:<42} {bq[1]:>12.5g} [{bq[0]:.4g}, {bq[2]:.4g}]".ljust(77)
                + f" {nq[1]:>12.5g} [{nq[0]:.4g}, {nq[2]:.4g}]".ljust(33)
                + f" {ratio:>9.4f} {won:>8}  "
                + verdict(list(b.values()), list(n.values()), better,
                          spec.get(metric, {}).get("bound")))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                    help="file with the metrics' bounds (default: BENCHMARK.json)")
    args = ap.parse_args(argv)
    for line in report(load_results(args.base), load_results(args.new), load_spec(args.benchmark)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
