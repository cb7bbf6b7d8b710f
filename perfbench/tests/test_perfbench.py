"""Tests of the benchmark itself (not of thetacob).

    python3 -m unittest discover -s perfbench/tests -t .
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import checks, compare, metrics, run, session_server, workloads  # noqa: E402
from perfbench.client import Outcome, run_process  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.requests_for(name, 7), workloads.requests_for(name, 7))

    def test_seed_changes_inputs(self):
        for name in ("cli_oneshot", "operations"):
            a = workloads.requests_for(name, 1)
            b = workloads.requests_for(name, 2)
            self.assertNotEqual([r.argv for r in a], [r.argv for r in b])

    def test_session_climbs_the_ladder_then_repeats_each_weight_twice(self):
        reqs = workloads.session_ladder(3)
        weights = [int(r.argv[-1]) for r in reqs if r.kind == "logarithm"]
        n = len(workloads.SESSION_WEIGHTS)
        self.assertEqual(weights[:n], list(workloads.SESSION_WEIGHTS))
        self.assertEqual(sum(r.kind == "fgl_check" for r in reqs), n)
        self.assertEqual(len(reqs), 4 * n + 2 * 3 * n)
        self.assertEqual(sorted(weights[n:]), sorted(list(workloads.SESSION_WEIGHTS) * 2))
        self.assertNotEqual(reqs, workloads.session_ladder(4))

    def test_product_shapes(self):
        reqs = [r for r in workloads.operations(5) if r.kind == "quantize"]
        self.assertEqual(len(reqs), len(workloads.PRODUCT_SHAPES))
        for req in reqs:
            self.assertIn("--roundtrip", req.argv)


class DigestTest(unittest.TestCase):
    req = workloads.Request("beta", ("beta",))

    def test_matching_digest_passes(self):
        store = {self.req.key: {"sha256": checks.sha256(b"table\n"), "exit": 0}}
        self.assertIsNone(checks.failure(self.req, 0, False, b"table\n", store))

    def test_corrupted_digest_counts_as_failure(self):
        good = checks.sha256(b"table\n")
        store = {self.req.key: {"sha256": ("1" if good[0] == "0" else "0") + good[1:], "exit": 0}}
        self.assertIsNotNone(checks.failure(self.req, 0, False, b"table\n", store))
        bench = run.Run(deadline=float("inf"), store=store)
        bench.record(0, 0, self.req, Outcome(0, b"table\n", b"", 0.1, 20.0))
        bench.record(0, 1, workloads.Request("fgl_check", ("fgl", "check")),
                     Outcome(0, b"residual 0\n", b"", 0.1, 20.0))
        e2e = run.end_to_end(bench, 1)
        self.assertEqual(e2e["failed_frac"]["value"], 0.5)


class StatisticsTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        for n in (11, 17, 51, 64, 100, 128):
            xs = [float(i) for i in range(n, 0, -1)]
            value, pct, beyond = metrics.tail(xs)
            self.assertEqual(sum(1 for x in xs if x > value), 10)
            self.assertEqual(beyond, 10)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)
        self.assertEqual(metrics.tail([float(i) for i in range(1, 101)])[:2], (90.0, 90.0))

    def test_latency_is_each_requests_median_over_passes(self):
        records = [{"index": i, "t": t, "latency_s": lat} for i, t, lat in
                   [(0, 0, 0.3), (1, 1, 2.0), (2, 2, None), (0, 3, 0.2), (1, 4, 2.5), (2, 5, 0.4),
                    (0, 6, 0.25)]]
        self.assertEqual(run.request_latencies(records), [0.25, 2.25, 0.4])
        self.assertEqual(run.request_latencies(records, lambda t: 2.0 if t < 3 else 1.0),
                         [0.25, 3.25, 0.4])

    def test_times_are_scaled_by_the_nearest_reference_samples(self):
        bench = run.Run(deadline=float("inf"), store={})
        self.assertEqual(bench.scale(5.0), 1.0)
        nominal = run.REFERENCE_NOMINAL_S
        bench.reference_samples = [(0.0, nominal), (1.0, nominal), (2.0, nominal),
                                   (10.0, 2 * nominal), (11.0, 2 * nominal), (12.0, 2 * nominal)]
        self.assertAlmostEqual(bench.scale(1.5), 1.0)
        self.assertAlmostEqual(bench.scale(10.5), 0.5)

    def test_passes_and_trace_only_requests(self):
        reqs = workloads.operations(4)
        self.assertEqual({r.kind for r in reqs if r.trace_only}, {"selftest", "classes_wn"})
        self.assertEqual(run.passes_for("operations", 40), 3)
        self.assertEqual(run.passes_for("cli_oneshot", 40), 2)
        self.assertEqual(run.passes_for("session_ladder", 40), 3)
        self.assertEqual(run.passes_for("session_ladder", 5), 1)

    def test_tail_with_few_samples_is_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 0))

    def test_spread(self):
        self.assertAlmostEqual(metrics.spread([1.0, 1.0, 1.0, 1.0]), 0.0)
        q1, med, q3 = metrics.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertAlmostEqual(metrics.spread([1.0, 2.0, 3.0, 4.0, 5.0]), (q3 - q1) / 3.0)


class SpanTreeTest(unittest.TestCase):
    # [id, name, start, end, parent, request, kernel_s]
    spans = [
        [1, "cli.main", 0.0, 10.0, None, "r", 1.0],
        [2, "cobordism.mischenko_log", 1.0, 4.0, 1, "r", 0.5],
        [3, "series.revert", 2.0, 3.0, 2, "r", 0.0],
        [4, "cobordism.mischenko_log", 5.0, 8.0, 1, "r", 0.0],
    ]

    def test_self_time_subtracts_children_and_kernels(self):
        selfs = metrics.self_times(self.spans)
        self.assertEqual(selfs, {1: 10.0 - 3.0 - 3.0 - 1.0, 2: 3.0 - 1.0 - 0.5, 3: 1.0, 4: 3.0})

    def test_overlapping_children_are_counted_once(self):
        spans = [[1, "a", 0.0, 10.0, None, "r", 0.0],
                 [2, "b", 1.0, 5.0, 1, "r", 0.0],
                 [3, "c", 4.0, 12.0, 1, "r", 0.0]]
        self.assertEqual(metrics.self_times(spans)[1], 1.0)

    def test_layer_totals_and_reuse(self):
        trace = {"spans": self.spans, "counters": {"gradedring.mul": [5, 0.75, 4, 1.0]}}
        tot = metrics.layer_totals([trace])
        self.assertEqual(tot["cobordism.mischenko_log"]["calls"], 2)
        self.assertAlmostEqual(tot["cobordism.mischenko_log"]["self_s"], 1.5 + 3.0)
        self.assertEqual(tot["gradedring.mul"]["calls"], 5)
        self.assertEqual(metrics.reuse_ratio([trace]), 0.5)
        layer = metrics.per_layer([trace], 0.1)
        self.assertEqual(set(layer), set(metrics.PER_LAYER))
        shares = sum(layer[f"layer.{m}.share"] for m in metrics.MODULES)
        self.assertAlmostEqual(shares, 1.0)


class TracerTest(unittest.TestCase):
    def test_traced_call_is_unchanged_and_spanned(self):
        from thetacob import cli, cobordism, genera, landweber
        from thetacob.gradedring import GradedPoly

        argv = ["genus", "--name", "todd", "--of", "poly:t2 + t1^2"]
        plain = io.StringIO()
        with contextlib.redirect_stdout(plain):
            cli.main(argv)
        original_mul = GradedPoly.__mul__
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(genera.ln_apply, landweber.ln_apply)
            self.assertIs(GradedPoly.__rmul__, GradedPoly.__mul__)
            self.assertIsNot(GradedPoly.__mul__, original_mul)
            tracer.request_id = "r1"
            traced = io.StringIO()
            with contextlib.redirect_stdout(traced):
                cli.main(argv)
            cobordism.mischenko_log(5)
        finally:
            tracer.uninstall()
        self.assertIs(GradedPoly.__mul__, original_mul)
        self.assertEqual(plain.getvalue(), traced.getvalue())
        names = {s[1] for s in tracer.spans}
        self.assertIn("cli.main", names)
        self.assertIn("genera.genus_of_poly", names)
        roots = [s for s in tracer.spans if s[4] is None]
        self.assertTrue(all(s[5] == "r1" for s in tracer.spans))
        self.assertEqual({s[1] for s in roots}, {"cli.main", "cobordism.mischenko_log"})

    def test_span_cap_turns_spans_into_counts(self):
        tracer = Tracer(kernels=(), span_cap=3)
        f = tracer.wrap("core.f", lambda x: x + 1)
        for i in range(5):
            f(i)
        self.assertEqual(len(tracer.spans), 3)
        self.assertEqual(tracer.counters["core.f"][0], 2)


class ClientTest(unittest.TestCase):
    def test_request_past_its_timeout_is_killed_and_failed(self):
        out = run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                          dict(os.environ), ROOT, 0.5)
        self.assertTrue(out.timed_out)
        self.assertIsNone(out.exit)
        self.assertLess(out.latency_s, 10.0)
        req = workloads.Request("beta", ("beta",))
        self.assertEqual(checks.failure(req, out.exit, out.timed_out, out.stdout, {}), "timeout")

    def test_exit_code_output_and_peak_rss(self):
        out = run_process([sys.executable, "-c", "print('hi'); raise SystemExit(3)"],
                          dict(os.environ), ROOT, 30.0)
        self.assertEqual((out.exit, out.stdout, out.timed_out), (3, b"hi\n", False))
        self.assertGreater(out.maxrss_mb, 1.0)


class SessionServerTest(unittest.TestCase):
    def test_bad_argv_fails_the_request_not_the_server(self):
        requests = [{"id": "a", "argv": ["no-such-command"]},
                    {"id": "b", "argv": ["beta", "--max-weight", "2"]}]
        stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        stdout = io.StringIO()
        session_server.serve(stdin, stdout)
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        self.assertEqual(replies[0], {"ready": True})
        self.assertEqual([(r["id"], r["exit"]) for r in replies[1:]], [("a", 2), ("b", 0)])
        self.assertIn("beta(z)", replies[2]["stdout"])
        self.assertTrue(all(r["elapsed_s"] >= 0.0 for r in replies[1:]))


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        base = [1.0, 1.01, 0.99, 1.0, 1.02]
        self.assertEqual(compare.verdict(base, [1.3, 1.31, 1.29, 1.3, 1.3], "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(base, [0.7, 0.71, 0.69, 0.7, 0.7], "lower", 0.1), "better")
        self.assertEqual(compare.verdict(base, base, "lower", 0.1), "same")
        noisy = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(compare.verdict(noisy, base, "lower", 0.1), "unresolved")
        self.assertEqual(compare.verdict(noisy, [0.5, 0.6, 0.7, 0.8], "lower", 0.1), "better")
        self.assertEqual(compare.verdict(noisy, [5.0, 6.0, 7.0, 8.0], "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(noisy, [5.0, 6.0, 7.0, 8.0], "higher", 0.1), "better")
        self.assertEqual(compare.verdict(base, [1.3, 1.31, 1.29, 1.3, 1.3], "higher", 0.1), "better")


if __name__ == "__main__":
    unittest.main()
