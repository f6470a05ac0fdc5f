#!/usr/bin/env python3
"""Self-test for tools/ab_perfbench.py on canned results: the pair order
alternates, the verdict needs both 9-of-10 pair wins and a median gap wider
than the parent's IQR, metric direction is honoured, failed runs are counted
and left out of the comparison, and the CLI re-reports saved results.
Registered in ctest as `ab_perfbench_test`."""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import ab_perfbench as ab  # noqa: E402

METRICS = [("ops_per_s", "higher"), ("setup_s", "lower"), ("peak_rss_mb", "lower")]


def run(ops, setup=0.5, rss=40.0, failed=0):
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops}, "setup_s": {"value": setup},
                        "peak_rss_mb": {"value": rss}}}


def pairs_of(parent_ops, change_ops):
    return [{"first": "parent" if i % 2 == 0 else "change", "parent": run(p), "change": run(c)}
            for i, (p, c) in enumerate(zip(parent_ops, change_ops))]


PARENT = [100, 102, 98, 101, 99, 103, 97, 100, 101, 99]


class CompareTest(unittest.TestCase):
    def test_clear_gain_is_better(self):
        change = [p + 20 for p in PARENT]
        change[3] = 90  # One lost pair is allowed.
        c = ab.compare(pairs_of(PARENT, change), "ops_per_s", "higher")
        self.assertEqual((c["wins"], c["losses"], c["ties"], c["need"]), (9, 1, 0, 9))
        self.assertEqual(c["verdict"], "better")

    def test_eight_of_ten_is_no_difference(self):
        change = [p + 20 for p in PARENT]
        change[3] = change[4] = 90
        c = ab.compare(pairs_of(PARENT, change), "ops_per_s", "higher")
        self.assertEqual(c["wins"], 8)
        self.assertEqual(c["verdict"], "no difference")

    def test_gap_inside_parent_iqr_is_no_difference(self):
        # Every pair won, but by less than the parent's spread.
        c = ab.compare(pairs_of(PARENT, [p + 1 for p in PARENT]), "ops_per_s", "higher")
        self.assertEqual(c["wins"], 10)
        self.assertLess(c["median_gap"], c["parent_iqr"])
        self.assertEqual(c["verdict"], "no difference")

    def test_lower_is_better_direction(self):
        pairs = pairs_of(PARENT, PARENT)
        for i, pair in enumerate(pairs):
            pair["parent"]["metrics"]["setup_s"]["value"] = 1.0 + 0.01 * (i % 3)
            pair["change"]["metrics"]["setup_s"]["value"] = 2.0 + 0.01 * (i % 3)
        c = ab.compare(pairs, "setup_s", "lower")
        self.assertEqual((c["wins"], c["losses"]), (0, 10))
        self.assertEqual(c["verdict"], "worse")
        tied = ab.compare(pairs, "ops_per_s", "higher")
        self.assertEqual((tied["ties"], tied["verdict"]), (10, "no difference"))

    def test_quartiles_interpolate(self):
        self.assertEqual(ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0))
        self.assertEqual(ab.quartiles([7.0]), (7.0, 7.0, 7.0))

    def test_failed_runs_are_counted_not_compared(self):
        pairs = pairs_of(PARENT[:3], [p + 50 for p in PARENT[:3]])
        pairs[1]["change"] = {"correct": False, "error": "exit 1"}
        pairs[2]["parent"]["failed"] = 4
        c = ab.compare(pairs, "ops_per_s", "higher")
        self.assertEqual((c["pairs"], c["need"], c["verdict"]), (2, 2, "better"))
        self.assertEqual(ab.failed_ops(pairs, "parent"), (4, 300, 0))
        self.assertEqual(ab.failed_ops(pairs, "change"), (0, 200, 1))


class RunPairsTest(unittest.TestCase):
    def test_order_alternates_after_warmups(self):
        calls = []

        def fake(checkout, workload, seed, seconds):
            calls.append((checkout, seconds))
            return run(1.0)

        with contextlib.redirect_stderr(io.StringIO()):
            pairs = ab.run_pairs("P", "C", "fleet_register", 1, 30.0, 4, runner=fake)
        self.assertEqual(calls[:2], [("P", ab.WARMUP_SECONDS), ("C", ab.WARMUP_SECONDS)])
        self.assertEqual([c for c, _ in calls[2:]], ["P", "C", "C", "P", "P", "C", "C", "P"])
        self.assertEqual([p["first"] for p in pairs], ["parent", "change", "parent", "change"])


class CliTest(unittest.TestCase):
    def saved(self, pairs):
        doc = {"workload": "fleet_register", "seed": 1, "seconds": 30, "metrics": METRICS,
               "pairs": pairs}
        f = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        with f:
            json.dump(doc, f)
        self.addCleanup(Path(f.name).unlink)
        return f.name

    def cli(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = ab.main(["--results", path])
        return status, out.getvalue()

    def test_reports_verdicts(self):
        status, out = self.cli(self.saved(pairs_of(PARENT, [p + 20 for p in PARENT])))
        self.assertEqual(status, 0)
        self.assertIn("change won 10, lost 0, tied 0 of 10 (needs 9)", out)
        self.assertIn("=> better", out)
        self.assertIn("=> no difference", out)  # setup_s and peak_rss_mb tie.
        self.assertIn("failed ops, change: 0 of 1000; runs not completed: 0", out)

    def test_failed_run_fails_the_cli(self):
        pairs = pairs_of(PARENT[:2], PARENT[:2])
        pairs[0]["parent"] = {"correct": False, "error": "exit 1"}
        status, out = self.cli(self.saved(pairs))
        self.assertEqual(status, 1)
        self.assertIn("runs not completed: 1", out)

    def test_arguments_required_without_results(self):
        with contextlib.redirect_stderr(io.StringIO()), self.assertRaises(SystemExit):
            ab.parse_args(["--workload", "fleet_register"])


if __name__ == "__main__":
    unittest.main()
