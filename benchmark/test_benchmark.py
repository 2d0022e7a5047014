"""Unit tests of the benchmark's statistics, trace attribution and verdicts.

    python3 -m unittest discover benchmark
"""

import contextlib
import io
import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402


class Statistics(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual(med, run.median(values))
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))

    def test_quartiles_of_one_value(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 99), 99)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([7.0], 99), 7.0)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(999), 95)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(16384), 99.9)


def span(name, ts, dur, tid=1, pid=0, **args):
    e = {"ph": "X", "name": name, "cat": "kernel", "ts": ts, "dur": dur,
         "pid": pid, "tid": tid}
    if args:
        e["args"] = args
    return e


# One client on thread 1 with a forward and a backward convolution and their
# GEMMs, a Linear GEMM outside any convolution, a span that starts exactly
# where the client ends, the same client shipped again as a worker lane
# (pid 1), and metadata that is not a span.
FIXTURE = {"traceEvents": [
    {"ph": "M", "name": "thread_name", "pid": 0, "tid": 1,
     "args": {"name": "fp-pool-1"}},
    span("client", 0.0, 100.0),
    span("conv2d_fwd", 10.0, 30.0),
    span("gemm", 15.0, 20.0, mnk=1000),
    span("conv2d_bwd", 50.0, 30.0),
    span("gemm", 55.0, 5.0, mnk=100),
    span("gemm", 62.0, 8.0, mnk=200),
    span("gemm", 85.0, 10.0, mnk=50),
    span("aggregate", 100.0, 4.0),
    span("gemm", 0.0, 10.0, tid=2, mnk=400),
    span("client", 0.0, 100.0, pid=1),
    span("conv2d_fwd", 10.0, 30.0, pid=1),
]}


class Traces(unittest.TestCase):
    def setUp(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(FIXTURE, f)
            self.path = f.name
        self.events = run.load_trace(self.path)

    def tearDown(self):
        Path(self.path).unlink()

    def test_only_local_spans_are_kept(self):
        self.assertEqual(len(self.events), 9)
        self.assertTrue(all(e["pid"] == 0 for e in self.events))

    def test_containment(self):
        parent = run.nest(self.events)
        names = [e["name"] for e in self.events]

        def parent_name(i):
            return None if parent[i] is None else names[parent[i]]

        self.assertIsNone(parent_name(0))              # client
        self.assertEqual(parent_name(1), "client")     # conv2d_fwd
        self.assertEqual(parent_name(2), "conv2d_fwd")
        self.assertEqual(parent_name(4), "conv2d_bwd")
        self.assertEqual(parent_name(6), "client")     # the Linear GEMM
        self.assertIsNone(parent_name(7))              # starts at client end
        self.assertIsNone(parent_name(8))              # other thread

    def test_self_time_and_layer_totals(self):
        layers = run.trace_layers(self.events)
        us = 1e-6
        self.assertAlmostEqual(layers["self"]["conv2d_fwd"], 10 * us)
        self.assertAlmostEqual(layers["self"]["conv2d_bwd"], 17 * us)
        self.assertAlmostEqual(layers["self"]["client"], 30 * us)
        self.assertAlmostEqual(layers["total"]["gemm"], 53 * us)
        self.assertEqual(layers["count"]["gemm"], 5)
        self.assertEqual(layers["flop"]["gemm"], 2.0 * 1750)
        # Client time inside convolutions (GEMMs included): 30 + 30 us.
        self.assertAlmostEqual(layers["conv_in_clients"], 60 * us)


class Verdicts(unittest.TestCase):
    STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]

    def test_worse(self):
        head = [x * 1.2 for x in self.STEADY]
        self.assertEqual(compare.verdict(self.STEADY, head, 0.1, "lower"),
                         "worse")
        self.assertEqual(compare.verdict(head, self.STEADY, 0.1, "higher"),
                         "worse")

    def test_unchanged_within_bound(self):
        head = [x * 1.05 for x in self.STEADY]
        self.assertEqual(compare.verdict(self.STEADY, head, 0.1, "lower"),
                         "unchanged")

    def test_better_needs_the_claim_rule(self):
        head = [x * 0.9 for x in self.STEADY]
        self.assertEqual(compare.verdict(self.STEADY, head, 0.1, "lower"),
                         "better")
        # Fewer than ten pairs: no claim however large the gain.
        self.assertEqual(
            compare.verdict(self.STEADY[:5], head[:5], 0.1, "lower"),
            "unchanged")
        # Two of ten pairs lost: the change must win nine in ten.
        mixed = head[:8] + [20.0, 20.0]
        self.assertFalse(compare.claim_holds(self.STEADY, mixed, "lower"))
        # A median gap inside the base's interquartile range is no claim.
        noisy = [8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0, 8.0, 12.0]
        slightly = [x - 0.5 for x in noisy]
        self.assertFalse(compare.claim_holds(noisy, slightly, "lower"))

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.verdict(noisy, noisy, 0.1, "lower"),
                         "unresolved")
        # Unless every head run reads better than every base run.
        self.assertEqual(compare.verdict(noisy, [5.0, 6.0, 5.5], 0.1,
                                         "lower"), "unchanged")
        # A worse median whose runs overlap the base's stays unresolved.
        self.assertEqual(compare.verdict(noisy, [x * 1.2 for x in noisy], 0.1,
                                         "lower"), "unresolved")

    def test_worse_despite_wide_spread_when_every_run_is_worse(self):
        noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
        slower = [x * 2 for x in noisy]
        self.assertEqual(compare.verdict(noisy, slower, 0.1, "lower"),
                         "worse")
        self.assertEqual(compare.verdict(slower, noisy, 0.1, "higher"),
                         "worse")

    @staticmethod
    def result(values, failed=0, hashes=None):
        runs = [{"metrics": {m["name"]: v for m in run.SPEC["end_to_end"]},
                 "hashes": dict(hashes or {})} for v in values]
        return {"workloads": {w: {"runs": runs, "attempted": 100,
                                  "failed": failed}
                              for w in run.WORKLOADS}}

    def test_fail_frac_and_blocked_gain(self):
        result = self.result
        base = result(self.STEADY, 0)
        rows = compare.compare(base, result(self.STEADY, 1))
        fail_rows = [r for r in rows if r[1] == "fail_frac"]
        self.assertTrue(all(r[4] == "worse" for r in fail_rows))
        # A metric that improved, on workloads whose failures rose, is not
        # a gain.
        faster = [x * 0.6 for x in self.STEADY]
        work = [r for r in compare.compare(base, result(faster, 1))
                if r[1] == "work_s"]
        self.assertTrue(all(r[4] == "unchanged" for r in work))
        work = [r for r in compare.compare(base, result(faster, 0))
                if r[1] == "work_s"]
        self.assertTrue(all(r[4] == "better" for r in work))

    def test_differing_outputs_fail_the_comparison(self):
        with tempfile.TemporaryDirectory() as d:
            def write(name, hashes):
                path = Path(d) / name
                path.write_text(json.dumps(self.result(self.STEADY,
                                                       hashes=hashes)))
                return str(path)

            base = write("base.json", {"1": "aa", "2": "bb"})
            same = write("same.json", {"2": "bb", "3": "cc"})
            changed = write("changed.json", {"1": "aa", "2": "xx"})
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(compare.main([base, same]), 0)
                self.assertEqual(compare.main([base, changed]), 1)
            common, differ = compare.output_differences(
                json.loads(Path(base).read_text()),
                json.loads(Path(changed).read_text()))
            self.assertEqual(common, 2 * len(run.WORKLOADS))
            self.assertEqual(differ, [(w, 2) for w in sorted(run.WORKLOADS)])


if __name__ == "__main__":
    unittest.main()
