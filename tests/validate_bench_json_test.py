#!/usr/bin/env python3
"""Self-test for tools/validate_bench_json.py: metric names the testbed
exports are accepted, names with a stray all-digit segment are still
rejected, the file name must match the bench, and the CLI exit status says
which. Registered in ctest as `validate_bench_json_test`."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import msn_lint  # noqa: E402
import validate_bench_json as vbj  # noqa: E402

ACCEPTED = [
    "ha.bindings",
    "ha.shard.3.bindings",
    "ha.backup.shard.15.processed",
    "ha.admission.denied",
    "ip.mh.drop_ttl",
    "dev.mh.eth0.queue_depth",
    "link.net8.frames_carried",
    # Testbed media are named after their subnet: one segment each.
    "link.net-36.134.frames_carried",
    "link.net-36.8.frames_dropped",
    "fault.net-36.8.blackout_drops",
    "fault.net-36.135.burst_drops",
]

REJECTED = [
    "ha.3.bindings",
    "link.net8.3.frames",
    "ip.queue.0.depth",
    "ha.shard.0",
    "ha.shard.x.processed",
    "ha.shard.0.1.depth",
    "link.xnet-36.134.frames",  # Only a whole "net-..." segment reads as one.
    "link.net-36.134.frames.7",
]


def bench_doc(bench, metric_names):
    return {
        "schema": "msn-bench-v1",
        "bench": bench,
        "title": "validator self-test",
        "seed": 1,
        "smoke": True,
        "params": {"build_type": "RelWithDebInfo"},
        "summaries": [],
        "rows": [],
        "metrics": [{"name": n, "type": "counter", "value": 1} for n in metric_names],
        "series": [],
    }


class ValidateBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="validate_bench_json_test_")
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)

    def write(self, file_name, doc):
        path = self.dir / file_name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_accepted_names(self):
        for name in ACCEPTED:
            with self.subTest(name=name):
                self.assertTrue(vbj.metric_numeric_segments_ok(name))
                self.assertTrue(msn_lint.metric_numeric_segments_ok(name))

    def test_rejected_names(self):
        for name in REJECTED:
            with self.subTest(name=name):
                self.assertFalse(vbj.metric_numeric_segments_ok(name))
                self.assertFalse(msn_lint.metric_numeric_segments_ok(name))

    def test_medium_name_reads_as_one_segment(self):
        self.assertEqual(vbj.metric_segments("link.net-36.134.frames_carried"),
                         ["link", "net-36.134", "frames_carried"])
        self.assertEqual(vbj.metric_segments("link.net8.3.frames"),
                         ["link", "net8", "3", "frames"])

    def test_file_with_testbed_media_validates(self):
        path = self.write("BENCH_selftest.json", bench_doc("selftest", sorted(ACCEPTED)))
        self.assertEqual(vbj.validate(path), (len(ACCEPTED), 0, 0))
        self.assertEqual(vbj.main(["validate_bench_json.py", path]), 0)

    def test_file_with_stray_index_fails(self):
        for name in ("ha.3.bindings", "link.net8.3.frames"):
            with self.subTest(name=name):
                path = self.write("BENCH_selftest.json", bench_doc("selftest", [name]))
                with self.assertRaisesRegex(vbj.ValidationError, "all-digit segment"):
                    vbj.validate(path)

    def test_file_name_must_match_bench(self):
        path = self.write("BENCH_other.json", bench_doc("selftest", ["ha.bindings"]))
        with self.assertRaisesRegex(vbj.ValidationError, "BENCH_selftest.json"):
            vbj.validate(path)
        self.assertEqual(vbj.main(["validate_bench_json.py", path]), 1)


if __name__ == "__main__":
    unittest.main()
