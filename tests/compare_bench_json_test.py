#!/usr/bin/env python3
"""Self-test for tools/compare_bench_json.py's exact gates. On the exported
"metrics" section, a missing name, a changed value and a changed type each
fail and are named; an identical section passes. On rows, a float value
that drifts fails when the baseline has no summaries (a bench with no
wall-clock value) and is skipped when it has them. Registered in ctest as
`compare_bench_json_test`."""

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import compare_bench_json as cbj  # noqa: E402

HISTOGRAM = {"name": "mh.handoff_ms", "type": "histogram", "count": 4, "sum": 30.59,
             "mean": 7.6475, "min": 7.477, "max": 7.776, "p50": 7.614, "p95": 7.768,
             "p99": 7.768}


def bench_doc(metrics, rows=None, summaries=None):
    return {
        "schema": "msn-bench-v1",
        "bench": "selftest",
        "title": "compare self-test",
        "seed": 1,
        "smoke": True,
        "params": {},
        "summaries": summaries or [],
        "rows": rows or [{"label": "clean", "values": {"lost": 0}}],
        "metrics": metrics,
        "series": [],
    }


BASE_METRICS = [
    {"name": "ha.bindings", "type": "gauge", "value": 1},
    {"name": "ha.requests_received", "type": "counter", "value": 12},
    {"name": "link.net-36.135.frames_carried", "type": "counter", "value": 5},
    HISTOGRAM,
]


class CompareMetricsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="compare_bench_json_test_")
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)
        self.base = self.write("base.json", bench_doc(BASE_METRICS))

    def write(self, file_name, doc):
        path = self.dir / file_name
        path.write_text(json.dumps(doc))
        return str(path)

    def compare(self, metrics):
        """Runs the CLI against the baseline; returns (exit status, stderr)."""
        cand = self.write("cand.json", bench_doc(metrics))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = cbj.main(["compare_bench_json.py", self.base, cand])
        return status, err.getvalue()

    def test_identical_metrics_pass(self):
        self.assertEqual(self.compare(copy.deepcopy(BASE_METRICS)), (0, ""))

    def test_missing_name_fails(self):
        status, err = self.compare(copy.deepcopy(BASE_METRICS[1:]))
        self.assertEqual(status, 1)
        self.assertIn("metric 'ha.bindings' missing from candidate", err)

    def test_extra_name_fails(self):
        metrics = copy.deepcopy(BASE_METRICS)
        metrics.append({"name": "mh.failover_count", "type": "counter", "value": 0})
        status, err = self.compare(metrics)
        self.assertEqual(status, 1)
        self.assertIn("metric 'mh.failover_count' not in baseline", err)

    def test_changed_value_fails(self):
        metrics = copy.deepcopy(BASE_METRICS)
        metrics[2]["value"] = 13
        status, err = self.compare(metrics)
        self.assertEqual(status, 1)
        self.assertIn("metric 'link.net-36.135.frames_carried' value changed: 5 -> 13", err)

    def test_changed_histogram_field_fails(self):
        metrics = copy.deepcopy(BASE_METRICS)
        metrics[3]["p99"] = 7.9
        status, err = self.compare(metrics)
        self.assertEqual(status, 1)
        self.assertIn("metric 'mh.handoff_ms' p99 changed", err)

    def test_changed_type_fails(self):
        metrics = copy.deepcopy(BASE_METRICS)
        metrics[1]["type"] = "gauge"
        status, err = self.compare(metrics)
        self.assertEqual(status, 1)
        self.assertIn("metric 'ha.requests_received' type changed: counter -> gauge", err)

    def test_every_differing_name_is_listed(self):
        metrics = copy.deepcopy(BASE_METRICS[1:])
        metrics[0]["value"] = 13
        status, err = self.compare(metrics)
        self.assertEqual(status, 1)
        self.assertIn("'ha.bindings'", err)
        self.assertIn("'ha.requests_received'", err)
        self.assertIn("2 regression(s)", err)


RTT_ROW = {"label": "tunnel-home", "values": {"rtt_ms_mean": 10.5796305, "echoes": 20}}
WALL_SUMMARY = {"name": "wall_ms", "unit": "ms", "n": 3, "mean": 12.0, "stddev": 0.5,
                "min": 11.5, "max": 12.5}


class CompareRowsTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="compare_bench_json_test_")
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)

    def compare(self, base_rows, cand_rows, summaries=None):
        """Runs the CLI on two documents that differ only in their rows."""
        base = self.dir / "base.json"
        cand = self.dir / "cand.json"
        base.write_text(json.dumps(bench_doc(BASE_METRICS, base_rows, summaries)))
        cand.write_text(json.dumps(bench_doc(BASE_METRICS, cand_rows, summaries)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = cbj.main(["compare_bench_json.py", str(base), str(cand)])
        return status, err.getvalue()

    def drifted(self):
        row = copy.deepcopy(RTT_ROW)
        row["values"]["rtt_ms_mean"] = 10.5796306
        return [row]

    def test_identical_float_rows_pass_without_summaries(self):
        self.assertEqual(self.compare([RTT_ROW], [copy.deepcopy(RTT_ROW)]), (0, ""))

    def test_float_drift_fails_without_summaries(self):
        status, err = self.compare([RTT_ROW], self.drifted())
        self.assertEqual(status, 1)
        self.assertIn("row 'tunnel-home' value 'rtt_ms_mean' changed: "
                      "10.5796305 -> 10.5796306", err)

    def test_missing_float_fails_without_summaries(self):
        row = copy.deepcopy(RTT_ROW)
        del row["values"]["rtt_ms_mean"]
        status, err = self.compare([RTT_ROW], [row])
        self.assertEqual(status, 1)
        self.assertIn("row 'tunnel-home' value 'rtt_ms_mean' missing from candidate", err)

    def test_float_drift_is_skipped_with_summaries(self):
        self.assertEqual(self.compare([RTT_ROW], self.drifted(), [WALL_SUMMARY]), (0, ""))

    def test_integer_drift_fails_with_summaries(self):
        row = copy.deepcopy(RTT_ROW)
        row["values"]["echoes"] = 19
        status, err = self.compare([RTT_ROW], [row], [WALL_SUMMARY])
        self.assertEqual(status, 1)
        self.assertIn("row 'tunnel-home' value 'echoes' changed: 20 -> 19", err)


if __name__ == "__main__":
    unittest.main()
