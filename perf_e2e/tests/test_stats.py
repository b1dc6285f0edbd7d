"""Self-tests of the benchmark's statistics, verdicts and result checks.

Run from the root of the repository:

    python3 -m unittest discover -s perf_e2e/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import stats  # noqa: E402


class Summaries(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [0.9, 1.3, 1.0, 1.7, 1.1, 2.5, 1.2, 1.05, 0.95, 1.4]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_relative_spread(self):
        self.assertAlmostEqual(stats.relative_spread([10.0] * 8), 0.0)
        q1, q2, q3 = statistics.quantiles([1, 2, 3, 4, 5], n=4)
        self.assertAlmostEqual(stats.relative_spread([1, 2, 3, 4, 5]),
                               (q3 - q1) / q2)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(99)), 0.9))
        values = list(range(1, 101))
        p90 = stats.tail_percentile(values, 0.9)
        self.assertEqual(p90, 90)
        self.assertEqual(sum(1 for v in values if v > p90), 10)
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(110, 0.9), 11)
        self.assertIsNone(stats.tail_percentile([], 0.5))

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1.0, 4.0]), 2.0)
        self.assertAlmostEqual(stats.geomean([0.5, 2.0, 1.0]), 1.0)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class Verdicts(unittest.TestCase):
    BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, "lower", 0.1),
                         "worse")

    def test_within_bound_is_same(self):
        change = [v * 1.05 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, "lower", 0.1),
                         "same")

    def test_better_needs_pairs_and_margin_over_spread(self):
        change = [v * 0.8 for v in self.BASE]
        self.assertEqual(stats.verdict(self.BASE, change, "lower", 0.1),
                         "better")
        # Better medians, but only 8 of 10 pairs won: not a gain.
        mixed = [v * 0.8 for v in self.BASE[:8]] + [1.5, 1.5]
        self.assertEqual(stats.verdict(self.BASE, mixed, "lower", 0.1),
                         "same")

    def test_wide_base_spread_is_unresolved(self):
        noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0, 0.9, 1.1, 1.0]
        change = [1.05] * 10
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1),
                         "unresolved")
        # Every change run beating every base run resolves it anyway.
        self.assertEqual(stats.verdict(noisy, [0.5] * 10, "lower", 0.1),
                         "better")

    def test_higher_is_better(self):
        self.assertEqual(stats.verdict(self.BASE, [v * 0.8 for v in self.BASE],
                                       "higher", 0.1), "worse")
        self.assertEqual(stats.verdict(self.BASE, [v * 1.2 for v in self.BASE],
                                       "higher", 0.1), "better")

    def test_exact_metrics(self):
        self.assertEqual(stats.verdict([2.0] * 10, [2.0] * 10, "lower", 0.01),
                         "same")
        self.assertEqual(stats.verdict([2.0] * 10, [2.1] * 10, "lower", 0.01),
                         "worse")


def synthetic_raw(ok=True, ops=110):
    """A driver document for suite-paper with two programs."""
    records = [{"kind": "setup_total", "program": "", "group": f"setup{i}",
                "op": False, "traced": False, "ok": True, "error": "",
                "values": {"setup_s": 1.0 + i / 10}} for i in range(3)]
    for prog in ("a", "b"):
        records.append({"kind": "squash", "program": prog, "group": "setup2",
                        "op": False, "traced": False, "ok": True, "error": "",
                        "values": {"wall_s": 0.01, "footprint_bytes": 50,
                                   "original_code_bytes": 100}})
    for i in range(ops):
        prog = "ab"[i % 2]
        records.append({"kind": "run", "program": prog,
                        "group": f"pass{i // 2}", "op": True,
                        "traced": False, "ok": ok or i != 7, "error": "x",
                        "values": {"wall_s": 0.1 + i / 1000,
                                   "reference_s": 0.02 if i % 4 == 0
                                   else 0.01,
                                   "instrs": 1e6, "cycles": 120.0,
                                   "base_cycles": 100.0}})
    return {"workload": "suite-paper", "seed": 1, "trace": 0,
            "peak_rss_kb": 2048, "records": records}


class ResultChecking(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent.parent / "BENCHMARK.json")
                                .read_text())

    def test_clean_run_reports_every_end_to_end_metric(self):
        result, lines, code = run.evaluate(synthetic_raw(), self.bench, 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], 112)
        names = [m["name"] for m in self.bench["end_to_end"]]
        self.assertEqual(list(result["metrics"]), names)
        m = result["metrics"]
        self.assertEqual(m["setup_s"]["value"], 1.1)
        # In kernel multiples, "a" is fastest in op 0 (0.100 s against a
        # 0.02 s kernel) and "b" in op 1 (0.101 s against 0.01 s).
        self.assertAlmostEqual(m["op_rel.best"]["value"], (5.0 * 10.1) ** 0.5)
        self.assertIn("op_s.best (unbounded)", "\n".join(lines))
        self.assertAlmostEqual(m["sim_cycles_ratio"]["value"], 1.2)
        self.assertAlmostEqual(m["footprint_ratio"]["value"], 0.5)
        self.assertEqual(m["peak_rss_mb"]["value"], 2.0)
        self.assertIn("n=110, 11 beyond", "\n".join(lines))

    def test_one_mismatch_fails_the_run(self):
        result, lines, code = run.evaluate(synthetic_raw(ok=False),
                                           self.bench, 0)
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_tail_is_withheld_below_ten_samples_beyond(self):
        result, lines, code = run.evaluate(synthetic_raw(ops=98), self.bench, 0)
        self.assertEqual(code, 0)
        self.assertIn("n=98: fewer than 10 samples beyond", "\n".join(lines))

    def test_nondeterministic_cycles_or_image_fail_the_run(self):
        raw = synthetic_raw()
        raw["records"][-1]["values"]["cycles"] = 121.0
        self.assertEqual(run.evaluate(raw, self.bench, 0)[2], 1)
        raw = synthetic_raw()
        raw["records"][3]["values"]["image_crc"] = 1
        raw["records"].append(dict(raw["records"][3], values=dict(
            raw["records"][3]["values"], image_crc=2)))
        self.assertEqual(run.evaluate(raw, self.bench, 0)[2], 1)


def traced_raw(unattributed=0.001, dropped=0):
    """A traced driver document: one untraced and one traced run op."""
    def op(group, traced, values):
        return {"kind": "run", "program": "a", "group": group, "op": True,
                "traced": traced, "ok": True, "error": "",
                "values": dict(values, wall_s=1.0, reference_s=0.01)}
    return {"workload": "suite-paper", "seed": 1, "trace": 1,
            "peak_rss_kb": 2048, "records": [
                op("pass0", False, {}),
                op("pass1", True, {"trace.machine.run.self_s": 0.9,
                                   "trace.unattributed_s": unattributed,
                                   "trace.dropped": dropped})]}


class TraceChecks(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((HERE.parent.parent / "BENCHMARK.json")
                                .read_text())

    def test_clean_trace_reports_every_per_layer_metric(self):
        result, lines, code = run.evaluate(traced_raw(), self.bench, 1)
        self.assertEqual(code, 0)
        names = [m["name"] for m in self.bench["per_layer"]]
        self.assertEqual(list(result["metrics"]), names)
        self.assertAlmostEqual(
            result["metrics"]["trace.interpreter_share"]["value"], 0.9)
        self.assertIn("note: no traced record carries pass.rewrite_s",
                      "\n".join(lines))

    def test_dropped_spans_fail_the_run(self):
        self.assertEqual(run.evaluate(traced_raw(dropped=3), self.bench, 1)[2],
                         1)

    def test_unattributed_time_beyond_tolerance_fails_the_run(self):
        gap = run.HOST_TIME_TOLERANCE + 0.01
        result, lines, code = run.evaluate(traced_raw(unattributed=gap),
                                           self.bench, 1)
        self.assertEqual(code, 1)
        self.assertIn("unattributed", "\n".join(lines))


if __name__ == "__main__":
    unittest.main()
