#!/usr/bin/env python3
"""Self-test for tools/sample_profile.py's aggregation: a canned samples file
(tests/data/sample_profile.samples) is located per executable mapping,
resolved through a stub in place of addr2line, and counted per DSO, per
function and per source file. Running the sampler itself is not part of
this test. Registered in ctest as `sample_profile_test`."""

import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import sample_profile as sp  # noqa: E402

CANNED = REPO_ROOT / "tests" / "data" / "sample_profile.samples"

# (path, file offset) -> (function, source file), as addr2line would answer.
NAMES = {
    ("/opt/msn/bin/fleet", 0x2010): ("msn::HomeAgent::InstallBinding", "/src/mip/home_agent.cc"),
    ("/opt/msn/bin/fleet", 0x3000): ("std::_Rb_tree_insert", "/usr/include/c++/12/bits/stl_tree.h"),
    ("/opt/msn/bin/fleet", 0x3004): ("std::_Rb_tree_insert", "/usr/include/c++/12/bits/stl_tree.h"),
    ("/usr/lib/libc.so.6", 0x28100): ("malloc", "??"),
}


class StubResolver:
    def __init__(self):
        self.queries = {}

    def __call__(self, path, file_offsets):
        self.queries[path] = list(file_offsets)
        return {fo: NAMES[(path, fo)] for fo in file_offsets}


class AggregationTest(unittest.TestCase):
    def setUp(self):
        self.resolver = StubResolver()
        self.profile = sp.aggregate([CANNED.read_text(encoding="utf-8")], self.resolver)

    def test_only_executable_file_mappings_are_kept(self):
        maps, pcs = sp.parse_samples(CANNED.read_text(encoding="utf-8"))
        self.assertEqual([m.path for m in maps], ["/opt/msn/bin/fleet", "/usr/lib/libc.so.6"])
        self.assertEqual(len(pcs), 10)

    def test_resolver_gets_file_offsets_once_per_dso(self):
        self.assertEqual(self.resolver.queries, {
            "/opt/msn/bin/fleet": [0x2010, 0x3000, 0x3004],
            "/usr/lib/libc.so.6": [0x28100],
        })

    def test_counts_per_dso_function_and_file(self):
        p = self.profile
        self.assertEqual(p.total, 10)
        self.assertEqual(dict(p.by_dso), {"fleet": 7, "libc.so.6": 2, "[unmapped]": 1})
        self.assertEqual(dict(p.by_function), {
            ("msn::HomeAgent::InstallBinding", "fleet"): 4,
            ("std::_Rb_tree_insert", "fleet"): 3,
            ("malloc", "libc.so.6"): 2,
            ("??", "[unmapped]"): 1,
        })
        self.assertEqual(dict(p.by_file), {
            "/src/mip/home_agent.cc": 4,
            "/usr/include/c++/12/bits/stl_tree.h": 3,
            "[libc.so.6]": 2,
            "[unmapped]": 1,
        })

    def test_report_ranks_by_count(self):
        report = sp.format_report(self.profile, top=2)
        self.assertTrue(report.startswith("10 samples\n"))
        functions = report.split("top 2 functions:\n")[1].split("\n\n")[0].splitlines()
        self.assertEqual(len(functions), 2)
        self.assertIn("40.00%  msn::HomeAgent::InstallBinding  [fleet]", functions[0])
        self.assertIn("30.00%  std::_Rb_tree_insert  [fleet]", functions[1])
        files = report.split("by source file (top 2):\n")[1].splitlines()
        self.assertEqual(len(files), 2)
        self.assertIn("40.00%  /src/mip/home_agent.cc", files[0])
        self.assertIn("20.00%  libc.so.6", report.split("by DSO:\n")[1].splitlines()[1])


if __name__ == "__main__":
    unittest.main()
