"""Summary statistics and per-layer metrics from recorded spans."""

from __future__ import annotations

import statistics
from collections import defaultdict

from .tracer import MODULES

TAIL_BEYOND = 10

CRITERIA = (
    "1-dual-classes-two-routes", "2-genus-tables", "3-landweber-novikov-suite",
    "4-integrality-positivity", "5-duality-quantisation", "6-formal-group-law",
    "7-congruence-lattices", "8-topological-tables", "9-weierstrass-lemniscatic",
)

# (span name, statistic, unit).  `calls` counts calls, `self_s` sums self
# time, `s` sums inclusive time.
_LAYER_STATS = [
    ("core.partition_union", "calls"), ("core.splittings", "calls"),
    ("gradedring.mul", "calls"), ("gradedring.mul", "self_s"),
    ("gradedring.add", "calls"), ("gradedring.add", "self_s"),
    ("gradedring.format_poly", "self_s"), ("gradedring.parse_poly", "self_s"),
    ("series.mul", "calls"), ("series.mul", "self_s"),
    ("series.compose", "calls"), ("series.compose", "self_s"),
    ("series.revert", "calls"), ("series.revert", "self_s"),
    ("series.inv", "self_s"), ("series.log", "self_s"),
    ("series.fgl_axiom_residuals", "self_s"),
    ("cobordism.mischenko_log", "calls"), ("cobordism.mischenko_log", "self_s"),
    ("cobordism.cp_classes", "self_s"), ("cobordism.v_classes", "self_s"),
    ("cobordism.w_classes", "self_s"),
    ("landweber.ln_apply", "calls"), ("landweber.ln_apply", "self_s"),
    ("landweber.quantize", "calls"), ("landweber.quantize", "self_s"),
    ("landweber.intersection_class", "calls"), ("landweber.dequantize", "self_s"),
    ("landweber.dual_pairing", "self_s"),
    ("genera.integrality_multiplier", "self_s"), ("genera.congruence_system", "self_s"),
    ("genera.genus_of_poly", "calls"), ("genera.genus_of_poly", "self_s"),
    ("lattices.integrality_lattice", "self_s"), ("lattices.kernel_rows", "self_s"),
    ("lattices.hermite_normal_form", "self_s"), ("lattices.smith_diagonal", "self_s"),
    ("symfun.to_normal_monomial", "self_s"),
    ("weierstrass.lattice_init", "self_s"), ("weierstrass.verify_lattice", "self_s"),
    ("weierstrass.eval", "calls"),
] + [(f"acceptance.{c}", "s") for c in CRITERIA] + [("cli.main", "self_s")]

_UNITS = {"calls": "count", "self_s": "s", "s": "s"}

PER_LAYER = {f"{name}.{stat}": _UNITS[stat] for name, stat in _LAYER_STATS}
PER_LAYER.update({
    "weierstrass.eval.us_per_point": "us",
    "cobordism.mischenko_log.reuse_ratio": "ratio",
})
for _m in MODULES:
    PER_LAYER[f"layer.{_m}.self_s"] = "s"
    PER_LAYER[f"layer.{_m}.share"] = "ratio"
PER_LAYER["trace.overhead_frac"] = "ratio"


# -- summary statistics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least TAIL_BEYOND samples
    above it: (value, percentile, samples beyond).  With too few samples
    for that, the maximum, reported as percentile 100 with 0 beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n - rank


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


# -- spans ------------------------------------------------------------------------------
# A span is [id, name, start, end, parent_id, request_id, kernel_s].


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval covered by child
    spans, minus the aggregated-kernel time recorded beneath it."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for sid, _, start, end, _, _, kernel_s in spans:
        covered, cursor = 0.0, start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[sid] = (end - start) - covered - kernel_s
    return out


def layer_totals(traces: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s and inclusive s, summed over the traces
    (one per traced process; span ids are unique within a trace)."""
    tot: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "s": 0.0})
    for tr in traces:
        selfs = self_times(tr["spans"])
        for s in tr["spans"]:
            t = tot[s[1]]
            t["calls"] += 1
            t["self_s"] += selfs[s[0]]
            t["s"] += s[3] - s[2]
        for name, (calls, self_s, _, outer_s) in tr["counters"].items():
            t = tot[name]
            t["calls"] += calls
            t["self_s"] += self_s
            t["s"] += outer_s
    return tot


def reuse_ratio(traces: list[dict], name: str = "cobordism.mischenko_log",
                child: str = "series.revert") -> float:
    """Share of `name` spans beneath which no `child` span ran."""
    total = reused = 0
    for tr in traces:
        by_id = {s[0]: s for s in tr["spans"]}
        ran = set()
        for s in tr["spans"]:
            if s[1] == child:
                p = s[4]
                while p is not None:
                    ran.add(p)
                    p = by_id[p][4]
        for s in tr["spans"]:
            if s[1] == name:
                total += 1
                reused += s[0] not in ran
    return reused / total if total else 0.0


def per_layer(traces: list[dict], overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced pass."""
    tot = layer_totals(traces)
    zero = {"calls": 0, "self_s": 0.0, "s": 0.0}
    out = {f"{name}.{stat}": tot.get(name, zero)[stat] for name, stat in _LAYER_STATS}
    ev_calls = sum(tr["counters"].get("weierstrass.eval", [0, 0, 0, 0])[2] for tr in traces)
    ev_s = sum(tr["counters"].get("weierstrass.eval", [0, 0, 0, 0])[3] for tr in traces)
    out["weierstrass.eval.us_per_point"] = 1e6 * ev_s / ev_calls if ev_calls else 0.0
    out["cobordism.mischenko_log.reuse_ratio"] = reuse_ratio(traces)
    by_module = {m: 0.0 for m in MODULES}
    for name, t in tot.items():
        by_module[name.split(".", 1)[0]] += t["self_s"]
    total = sum(by_module.values())
    for m in MODULES:
        out[f"layer.{m}.self_s"] = by_module[m]
        out[f"layer.{m}.share"] = by_module[m] / total if total else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out
