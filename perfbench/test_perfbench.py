"""Tests of the benchmark itself: the report arithmetic, and end-to-end checks
that a failing fuzz seed is counted rather than fatal and that a drifting
count is caught. Run from the repository root:

    python3 perfbench/test_perfbench.py

The end-to-end tests build the driver on first use (as run.py does)."""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import analysis  # noqa: E402
import run  # noqa: E402


class SpanSelfTime(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            ("root", 0.0, 100.0, -1),
            ("a", 10.0, 40.0, 0),
            ("a.inner", 15.0, 25.0, 1),
            ("b", 50.0, 90.0, 0),
        ]
        self.assertEqual(analysis.self_times(spans), [30.0, 20.0, 10.0, 40.0])

    def test_self_times_sum_to_root_duration(self):
        spans = [("r", 0.0, 10.0, -1), ("x", 1.0, 4.0, 0), ("y", 2.0, 3.0, 1), ("r2", 20.0, 25.0, -1)]
        self.assertAlmostEqual(sum(analysis.self_times(spans)), 15.0)

    def test_self_time_by_name_totals_and_counts(self):
        spans = [("seed", 0.0, 10.0, -1), ("gen", 0.0, 4.0, 0), ("seed", 10.0, 16.0, -1),
                 ("gen", 10.0, 12.0, 2)]
        self.assertEqual(analysis.self_time_by_name(spans), {"seed": (10.0, 2), "gen": (6.0, 2)})
        self.assertAlmostEqual(analysis.mean_ms(analysis.self_time_by_name(spans), "gen"), 0.003)
        self.assertEqual(analysis.mean_ms({}, "absent"), 0.0)


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(analysis.tail_percentile(1000), 99.0)  # p99.9 has only 1 beyond.
        self.assertEqual(analysis.tail_percentile(10000), 99.9)
        self.assertEqual(analysis.tail_percentile(999), 90.0)  # p99 has 9.99 beyond.
        self.assertEqual(analysis.tail_percentile(100), 90.0)
        self.assertEqual(analysis.tail_percentile(99), 50.0)
        self.assertEqual(analysis.tail_percentile(20), 50.0)
        self.assertIsNone(analysis.tail_percentile(19))

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(analysis.percentile(values, 50), 50)
        self.assertEqual(analysis.percentile(values, 90), 90)
        self.assertEqual(analysis.percentile(values, 100), 100)
        self.assertEqual(analysis.percentile([7.0], 99), 7.0)


class FastestUnits(unittest.TestCase):
    def test_each_unit_takes_its_fastest_pass(self):
        passes = [[3.0, 1.0, 5.0], [2.0, 4.0, 5.0], [9.0, 1.5, 4.0]]
        self.assertEqual(analysis.fastest_units(passes), [2.0, 1.0, 4.0])

    def test_passes_of_different_shape_are_rejected(self):
        self.assertIsNone(analysis.fastest_units([[1.0, 2.0], [1.0]]))
        self.assertIsNone(analysis.fastest_units([]))


class RatiosWithBase(unittest.TestCase):
    def test_ratio_line_names_numerator_denominator_and_base(self):
        line = analysis.format_ratio("x.hit_ratio", 999, 1000, "lookups")
        self.assertEqual(line, "x.hit_ratio = 0.999 (999 / 1000 lookups)")

    def test_zero_base_reads_zero_not_an_error(self):
        self.assertEqual(analysis.ratio(0, 0), 0.0)
        self.assertIn("(0 / 0 device bursts)", analysis.ratio_line("link.frames_per_burst", {}))

    def test_every_ratio_metric_is_printed_with_its_base(self):
        counts = {"node.flow_hits": 3, "node.flow_misses": 1, "mip.ha_accepted": 2,
                  "mip.ha_requests": 4, "sim.lane_scheduled": 1, "sim.scheduled": 8}
        self.assertIn("0.75 (3 / 4 flow-cache lookups)",
                      analysis.ratio_line("node.flow_cache_hit_ratio", counts))
        self.assertIn("0.5 (2 / 4 HA requests)", analysis.ratio_line("mip.ha_accept_ratio", counts))
        self.assertIn("(1 / 8 events scheduled)", analysis.ratio_line("sim.lane_share", counts))


class Determinism(unittest.TestCase):
    def test_identical_runs_have_no_drift(self):
        counts = {"sim.events": 10, "link.frames": 4}
        self.assertEqual(analysis.drifting_counts([counts, dict(counts)]), [])

    def test_drifting_and_missing_counts_are_named(self):
        a = {"sim.events": 10, "link.frames": 4, "only.a": 1}
        b = {"sim.events": 11, "link.frames": 4}
        self.assertEqual(analysis.drifting_counts([a, b]), ["only.a", "sim.events"])


class Reconstruction(unittest.TestCase):
    ISO = {"sim.event": 100.0, "link.frame": 50.0, "node.ingress": 200.0,
           "node.route_lookup": 10.0, "mip.encap": 40.0, "mip.decap": 60.0,
           "mip.reg_request": 2000.0}

    def test_sum_of_count_times_cost(self):
        counts = {"sim.events": 20, "link.frames": 4, "node.ingress_frames": 4, "node.flow_hits": 4,
                  "mip.tunneled": 1, "mip.mh_decaps": 1}
        terms, unexplained = analysis.reconstruct(counts, 2, self.ISO, {}, 2000.0)
        self.assertEqual(terms, {"sim": 1000.0, "link": 100.0, "node": 420.0, "mip": 50.0})
        self.assertAlmostEqual(unexplained, 1 - 1570.0 / 2000.0)

    def test_registration_cost_excludes_work_priced_elsewhere(self):
        per_reg = {"sim.events": 10, "link.frames": 2, "node.ingress_frames": 1}
        self.assertEqual(analysis.reg_self_ns(self.ISO, per_reg), 2000 - 1000 - 100 - 200)
        self.assertEqual(analysis.reg_self_ns(dict(self.ISO, **{"mip.reg_request": 1.0}), per_reg), 0)


class Units(unittest.TestCase):
    def test_benchmark_json_lists_every_metric_with_the_reported_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = analysis.layer_metrics({}, 1, dict.fromkeys(
            ["sim.event", "link.frame", "node.ingress", "node.route_lookup",
             "node.route_lookup_uncached", "mip.reg_request", "mip.encap", "mip.decap"], 1.0),
            {}, 1.0, 0.0)
        self.assertEqual(per_layer, {name: run.unit_of(name) for name in values})
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))


def run_bench(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


class EndToEnd(unittest.TestCase):
    """Builds and runs the driver on a tiny slice of work."""

    def test_failing_fuzz_seed_is_counted_not_fatal(self):
        # Seed 584 violates an oracle on the simulator as it stands. When a fix
        # makes it pass, pin the window to another failing seed.
        code, lines, result = run_bench("--workload", "fuzz_soak", "--seed", "1", "--trace", "1",
                                        "--first-fuzz-seed", "583", "--fuzz-seeds", "3")
        self.assertEqual(result["attempted"], 3)
        self.assertEqual(result["failed"], 1)
        self.assertTrue(result["correct"])
        self.assertEqual(code, 0)
        self.assertTrue(any("failed_ratio = 0.333333 (1 / 3 attempted ops)" in line
                            for line in lines))
        self.assertTrue(any("failed op: seed 584" in line for line in lines))

    def test_drifting_count_is_caught(self):
        code, lines, result = run_bench("--workload", "fuzz_soak", "--seed", "1", "--trace", "1",
                                        "--first-fuzz-seed", "1", "--fuzz-seeds", "1",
                                        "--inject-drift")
        self.assertFalse(result["correct"])
        self.assertNotEqual(code, 0)
        self.assertTrue(any("DRIFT" in line and "test.drift" in line for line in lines))


if __name__ == "__main__":
    unittest.main()
