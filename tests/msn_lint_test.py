#!/usr/bin/env python3
"""Self-test for tools/msn_lint.py: one positive and one allowlisted/clean
negative fixture per rule, plus CLI exit-code behaviour. Registered in ctest
as `msn_lint_test` so tier-1 runs it alongside the C++ suites."""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import msn_lint  # noqa: E402


def run_lint(root: Path, paths=("src",)):
    return msn_lint.lint_paths(root, list(paths))


def rules_of(violations):
    return [v.rule for v in violations]


class FixtureTree:
    """Builds a throwaway repo-shaped tree to lint."""

    def __init__(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="msn_lint_test_")
        self.root = Path(self._tmp.name)

    def write(self, rel: str, content: str) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        return path

    def cleanup(self):
        self._tmp.cleanup()


class MsnLintTest(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()
        self.addCleanup(self.tree.cleanup)

    # --- layering/upward-include --------------------------------------------

    def test_upward_include_flagged(self):
        self.tree.write("src/net/bad.cc", '#include "src/mip/home_agent.h"\n')
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["layering/upward-include"])

    def test_peer_rank_include_flagged(self):
        # net and sim share a rank; neither may include the other.
        self.tree.write("src/net/bad.cc", '#include "src/sim/time.h"\n')
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["layering/upward-include"])

    def test_downward_and_same_dir_includes_ok(self):
        self.tree.write("src/mip/ok.cc",
                        '#include "src/mip/messages.h"\n'
                        '#include "src/net/headers.h"\n'
                        '#include "src/util/rng.h"\n')
        self.assertEqual(run_lint(self.tree.root), [])

    def test_unknown_layer_flagged(self):
        self.tree.write("src/node/bad.cc", '#include "src/quantum/teleport.h"\n')
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["layering/upward-include"])

    # --- header/guard --------------------------------------------------------

    def test_wrong_guard_name_flagged(self):
        self.tree.write("src/net/thing.h",
                        "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\n#endif\n")
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["header/guard"])

    def test_pragma_once_flagged(self):
        self.tree.write("src/net/thing.h", "#pragma once\nint x;\n")
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["header/guard"])

    def test_missing_define_flagged(self):
        self.tree.write("src/net/thing.h",
                        "#ifndef MSN_SRC_NET_THING_H_\n#include <vector>\n#endif\n")
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["header/guard"])

    def test_correct_guard_ok(self):
        self.tree.write("src/net/thing.h",
                        "// A comment first is fine.\n"
                        "#ifndef MSN_SRC_NET_THING_H_\n"
                        "#define MSN_SRC_NET_THING_H_\n"
                        "int x;\n"
                        "#endif  // MSN_SRC_NET_THING_H_\n")
        self.assertEqual(run_lint(self.tree.root), [])

    # --- header/using-namespace ---------------------------------------------

    def test_using_namespace_in_header_flagged(self):
        self.tree.write("src/net/thing.h",
                        "#ifndef MSN_SRC_NET_THING_H_\n"
                        "#define MSN_SRC_NET_THING_H_\n"
                        "using namespace std;\n"
                        "#endif\n")
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["header/using-namespace"])

    def test_using_namespace_in_cc_not_flagged(self):
        self.tree.write("src/net/thing.cc", "using namespace std::literals;\n")
        self.assertEqual(run_lint(self.tree.root), [])

    def test_using_declaration_in_header_ok(self):
        self.tree.write("src/net/thing.h",
                        "#ifndef MSN_SRC_NET_THING_H_\n"
                        "#define MSN_SRC_NET_THING_H_\n"
                        "using MipAuthKey = int;\n"
                        "#endif\n")
        self.assertEqual(run_lint(self.tree.root), [])

    # --- telemetry/metric-name ----------------------------------------------

    def test_bad_metric_names_flagged(self):
        self.tree.write("src/mip/bad.cc",
                        'auto& a = reg.GetCounter("HA.Requests");\n'
                        'auto& b = reg.GetGauge("bindings");\n'
                        'auto& c = reg.GetHistogram("ha processing ms");\n')
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["telemetry/metric-name"] * 3)

    def test_good_metric_names_ok(self):
        self.tree.write("src/mip/ok.cc",
                        'auto& a = reg.GetCounter("ha.requests_received");\n'
                        'auto& b = reg.GetGauge("dev.mh.eth0.queue_depth");\n'
                        'auto r = reg.GetCounterRef(prefix + "drop_ttl");\n'
                        'auto& h = reg.GetHistogram("mh.handoff_ms", 0.01);\n')
        self.assertEqual(run_lint(self.tree.root), [])

    def test_concatenated_prefix_charset_enforced(self):
        self.tree.write("src/mip/bad.cc", 'auto& a = reg.GetCounter("IP." + name);\n')
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["telemetry/metric-name"])

    def test_unregistered_namespace_flagged(self):
        self.tree.write("src/mip/bad.cc",
                        'auto& a = reg.GetCounter("bogus.requests");\n'
                        'auto& b = reg.GetGauge("arp." + name);\n')
        self.assertEqual(rules_of(run_lint(self.tree.root)),
                         ["telemetry/metric-name"] * 2)

    def test_check_namespace_ok(self):
        self.tree.write("src/check/ok.cc",
                        'auto& a = reg.GetCounter("check.oracle_checks");\n'
                        'auto& b = reg.GetCounterRef("check." + oracle);\n')
        self.assertEqual(run_lint(self.tree.root), [])

    def test_registered_subnamespaces_ok(self):
        self.tree.write("src/mip/ok.cc",
                        'auto& a = reg.GetCounter("ha.admission.denied");\n'
                        'auto& b = reg.GetGauge("ha.shard.0.queue_depth");\n'
                        'auto& c = reg.GetCounterRef("ha.backup.shard.15.processed");\n')
        self.assertEqual(run_lint(self.tree.root), [])

    def test_digit_segment_outside_indexed_prefix_flagged(self):
        self.tree.write("src/mip/bad.cc",
                        'auto& a = reg.GetGauge("ip.queue.0.depth");\n'
                        'auto& b = reg.GetCounter("ha.shard.0");\n'
                        'auto& c = reg.GetCounter("ha.shard.x.processed");\n'
                        'auto& d = reg.GetGauge("ha.shard.0.1.depth");\n')
        self.assertEqual(rules_of(run_lint(self.tree.root)),
                         ["telemetry/metric-name"] * 4)

    # --- perf/frame-by-value ------------------------------------------------

    def test_frame_by_value_flagged(self):
        self.tree.write("src/node/bad.cc",
                        "void Handle(EthernetFrame frame) {}\n"
                        "void Send(NetDevice* dev, Packet wire, int x) {}\n")
        self.assertEqual(rules_of(run_lint(self.tree.root)),
                         ["perf/frame-by-value"] * 2)

    def test_frame_by_const_value_flagged(self):
        self.tree.write("src/node/bad.cc", "void f(const Packet wire) {}\n")
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["perf/frame-by-value"])

    def test_frame_references_and_pointers_ok(self):
        self.tree.write("src/node/ok.cc",
                        "void a(const EthernetFrame& frame) {}\n"
                        "void b(EthernetFrame&& frame) {}\n"
                        "void c(Packet* wire) {}\n"
                        "void d(const Packet& payload, NetDevice* dev) {}\n")
        self.assertEqual(run_lint(self.tree.root), [])

    def test_frame_by_value_wrapped_signature_flagged(self):
        # The parameter list is split across lines; the finding lands on the
        # line holding the parameter itself.
        path = self.tree.write("src/node/bad.cc",
                               "void Transmit(NetDevice* device,\n"
                               "              Packet wire,\n"
                               "              MacAddress dst) {}\n")
        violations = run_lint(self.tree.root)
        self.assertEqual(rules_of(violations), ["perf/frame-by-value"])
        self.assertEqual(violations[0].line, 2)
        self.assertEqual(violations[0].path, path)

    def test_frame_local_variable_not_flagged(self):
        self.tree.write("src/node/ok.cc",
                        "void f() {\n"
                        "  EthernetFrame frame;\n"
                        "  Packet wire = Packet::Allocate(64);\n"
                        "  (void)frame; (void)wire;\n"
                        "}\n")
        self.assertEqual(run_lint(self.tree.root), [])

    def test_frame_by_value_lambda_param_flagged(self):
        self.tree.write("src/node/bad.cc",
                        "auto cb = [](EthernetFrame frame) { (void)frame; };\n")
        self.assertEqual(rules_of(run_lint(self.tree.root)), ["perf/frame-by-value"])

    def test_frame_by_value_allow_comment(self):
        self.tree.write("src/node/ok.cc",
                        "// msn-lint: allow(perf/frame-by-value) — ownership sink.\n"
                        "void Sink(Packet wire) {}\n")
        self.assertEqual(run_lint(self.tree.root), [])

    def test_frame_outside_src_not_flagged(self):
        self.tree.write("tests/whatever.cc", "void f(Packet wire) {}\n")
        self.assertEqual(run_lint(self.tree.root, ["tests"]), [])

    # --- CLI ----------------------------------------------------------------

    def test_cli_exit_codes_and_output(self):
        self.tree.write("src/node/bad.cc", "void f(Packet wire);\n")
        tool = REPO_ROOT / "tools" / "msn_lint.py"
        proc = subprocess.run(
            [sys.executable, str(tool), "--root", str(self.tree.root), "src"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("[perf/frame-by-value]", proc.stdout)

        single = subprocess.run(
            [sys.executable, str(tool), "--root", str(self.tree.root),
             "src/node/bad.cc"], capture_output=True, text=True)
        self.assertEqual(single.returncode, 1)

        missing = subprocess.run(
            [sys.executable, str(tool), "--root", str(self.tree.root), "nope/"],
            capture_output=True, text=True)
        self.assertEqual(missing.returncode, 2)

    # --- docstring DAG stays in sync with the table --------------------------

    def test_dag_text_matches_layer_rank_table(self):
        # LAYER_DAG_TEXT (used in the layering error message) must be exactly
        # LAYER_RANK rendered rank by rank.
        ranks = sorted(set(msn_lint.LAYER_RANK.values()))
        self.assertEqual(ranks, list(range(len(ranks))), "ranks must be dense")
        groups = [{l for l, r in msn_lint.LAYER_RANK.items() if r == rank}
                  for rank in ranks]
        parsed = [set(part.split(",")) for part in
                  msn_lint.LAYER_DAG_TEXT.split(" -> ")]
        self.assertEqual(parsed, groups)

    def test_docstring_dag_matches_layer_rank_table(self):
        # The module docstring wraps the DAG across lines; normalize
        # whitespace and require the canonical text verbatim.
        flat = " ".join(msn_lint.__doc__.split())
        self.assertIn(msn_lint.LAYER_DAG_TEXT, flat,
                      "msn_lint.py's docstring DAG drifted from LAYER_RANK — "
                      "update the layering/upward-include description")

    def test_repo_src_is_clean(self):
        # The real tree must stay lint-clean; this is the same gate CI runs.
        self.assertEqual(run_lint(REPO_ROOT, ["src"]), [])


if __name__ == "__main__":
    unittest.main()
