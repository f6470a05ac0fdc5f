#!/usr/bin/env python3
"""msn_lint: repo-specific static analysis for the MosquitoNet reproduction.

Machine-checks the invariants the codebase is built on but a compiler cannot
see:

  layering/upward-include   Includes must follow the layer DAG
                            util -> net,sim -> telemetry -> link -> node ->
                            mip,dhcp,tcplite -> repl,tracing,fault ->
                            mobility -> topo -> check.
                            (Lower layers never include higher ones; peers at
                            the same rank never include each other.)
  header/guard              Headers use an include guard named after their
                            path (MSN_SRC_DIR_FILE_H_); #pragma once is
                            rejected for consistency.
  header/using-namespace    No `using namespace` at any scope in headers.
  telemetry/metric-name     Metric names handed to MetricsRegistry::Get* are
                            lowercase dot-paths: "<subsystem>.<noun>" (e.g.
                            "ha.bindings", "ip.mh.drop_no_route") whose first
                            segment is a registered namespace (see
                            METRIC_NAMESPACES; includes the fuzzer's "check").
  perf/frame-by-value       No EthernetFrame or Packet parameters taken by
                            value in src/ signatures — pass `const&` to read,
                            `&&` to consume. A by-value parameter silently
                            refcounts (and can later COW-copy) the packet
                            buffer; intentional ownership sinks carry an
                            inline allow stating so.

The determinism rules (wall-clock time, ambient RNG) live in
tools/msn_analyze.py, whose AST backend resolves the actual callee and whose
lexical fallback covers environments without libclang.

Suppressing a finding
  Inline: append `// msn-lint: allow(<rule-id>)` to the offending line (or
  place it alone on the line above). Use sparingly and say why nearby.
  File-level: add (rule-id, path) to FILE_ALLOWLIST below with a comment.

Usage
  tools/msn_lint.py [paths...]        # default: src/
  tools/msn_lint.py --list-rules

Exit status: 0 when clean, 1 when violations were found, 2 on usage errors.
Stdlib-only by design; self-tested by tests/msn_lint_test.py (run by ctest).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- Rule catalog -----------------------------------------------------------

RULES = {
    "layering/upward-include": "include does not follow the layer DAG",
    "header/guard": "missing or misnamed include guard",
    "header/using-namespace": "`using namespace` in a header",
    "telemetry/metric-name": "metric name is not a lowercase <subsystem>.<noun> dot-path",
    "perf/frame-by-value": "EthernetFrame/Packet parameter taken by value",
}

# Human-readable rendering of LAYER_RANK, used in the docstring and the
# layering error message. tests/msn_lint_test.py asserts it matches the table.
LAYER_DAG_TEXT = ("util -> net,sim -> telemetry -> link -> node -> "
                  "mip,dhcp,tcplite -> repl,tracing,fault -> mobility -> "
                  "topo -> check")

# Layer ranks; a file may include only from strictly lower ranks or its own
# directory. Keep in sync with DESIGN.md §11's DAG diagram.
LAYER_RANK = {
    "util": 0,
    "net": 1,
    "sim": 1,
    "telemetry": 2,
    "link": 3,
    "node": 4,
    "mip": 5,
    "dhcp": 5,
    "tcplite": 5,
    "repl": 6,
    "tracing": 6,
    "fault": 6,
    "mobility": 7,
    "topo": 8,
    "check": 9,
}

# (rule-id, repo-relative path) pairs exempted wholesale. Prefer inline
# allows; use this only when a file legitimately trips a rule throughout.
FILE_ALLOWLIST: set[tuple[str, str]] = set()

ALLOW_RE = re.compile(r"//\s*msn-lint:\s*allow\(([^)]+)\)")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"src/([a-z0-9_]+)/')
USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")

METRIC_CALL_RE = re.compile(
    r"Get(?:Counter|CounterRef|Gauge|ProbeGauge|Histogram)\s*\(\s*(\"(?:[^\"\\]|\\.)*\")"
    r"\s*([,)+])?"
)
METRIC_FULL_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
METRIC_PIECE_RE = re.compile(r"^[a-z0-9_.]*$")

# First dot-path segment of every metric name. Keep sorted; grow it when a new
# subsystem starts exporting metrics (the check fuzzer's oracles are the most
# recent addition).
METRIC_NAMESPACES = {
    "check", "dev", "fault", "ha", "ip", "link", "mh", "mobility", "packet",
    "pool", "repl", "tcp",
}

# Registered sub-namespaces (mirrored in tools/validate_bench_json.py).
# Indexed prefixes name one instance per numeric index: the segment right
# after the prefix must be all digits, followed by at least one noun segment
# ("ha.shard.3.bindings"). All-digit segments anywhere else are rejected —
# an unregistered "<ns>.<noun>.<i>.x" family silently explodes metric
# cardinality, so per-instance families must be registered here first.
INDEXED_METRIC_SUBNAMESPACES = {
    "ha.shard.", "ha.backup.shard.",
}
# Flat sub-namespaces: documented multi-metric families with no index.
FLAT_METRIC_SUBNAMESPACES = {
    "ha.admission.", "ha.backup.admission.",
}


def metric_numeric_segments_ok(name: str) -> bool:
    """True when every all-digit segment of `name` sits exactly at the index
    position of a registered indexed sub-namespace."""
    for prefix in INDEXED_METRIC_SUBNAMESPACES:
        if name.startswith(prefix):
            index, _, noun = name[len(prefix):].partition(".")
            return (index.isdigit() and noun != "" and
                    not any(seg.isdigit() for seg in noun.split(".")))
    return not any(seg.isdigit() for seg in name.split("."))

# A parameter position: `(` or `,` then an (optionally const) bare
# EthernetFrame/Packet followed directly by a parameter name. References,
# rvalue references, and pointers break the match by construction, so
# `const Packet&`, `Packet&&`, and `Packet*` all pass. Whitespace may span
# lines (wrapped signatures).
FRAME_BY_VALUE_RE = re.compile(
    r"[(,]\s*(?:const\s+)?(EthernetFrame|Packet)\s+([A-Za-z_]\w*)\s*(?=[,)])",
    re.DOTALL,
)


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line breaks.

    Keeps column positions roughly stable by replacing stripped characters
    with spaces, so regex hits map back to real source locations.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


def allowed_lines(text: str) -> dict[int, set[str]]:
    """Maps 1-based line numbers to the rule ids allowed on that line.

    An allow comment alone on a line also covers the line below it.
    """
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        allows.setdefault(lineno, set()).update(rules)
        if line.strip().startswith("//"):  # Standalone comment: covers next line.
            allows.setdefault(lineno + 1, set()).update(rules)
    return allows


def guard_name_for(rel_path: Path) -> str:
    return "MSN_" + re.sub(r"[^A-Za-z0-9]", "_", str(rel_path).upper()) + "_"


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[Violation] = []

    def _report(self, path: Path, rel: Path, line: int, rule: str, message: str,
                allows: dict[int, set[str]]) -> None:
        if (rule, str(rel)) in FILE_ALLOWLIST:
            return
        if rule in allows.get(line, set()):
            return
        self.violations.append(Violation(path, line, rule, message))

    def lint_file(self, path: Path) -> None:
        try:
            rel = path.resolve().relative_to(self.root.resolve())
        except ValueError:
            rel = path
        text = path.read_text(encoding="utf-8", errors="replace")
        allows = allowed_lines(text)
        code = strip_comments_and_strings(text)
        in_src = rel.parts[:1] == ("src",)
        layer = rel.parts[1] if in_src and len(rel.parts) > 2 else None

        if in_src:
            self._check_frame_by_value(path, rel, code, allows)
        if layer is not None:
            # Raw text: include paths live inside string literals, which the
            # stripper blanks out.
            self._check_layering(path, rel, layer, text, allows)
        if path.suffix == ".h" and in_src:
            self._check_header_guard(path, rel, text, code, allows)
            self._check_using_namespace(path, rel, code, allows)
        self._check_metric_names(path, rel, text, allows)

    def _check_frame_by_value(self, path, rel, code, allows):
        for m in FRAME_BY_VALUE_RE.finditer(code):
            type_name, param = m.group(1), m.group(2)
            lineno = code.count("\n", 0, m.start(1)) + 1
            self._report(path, rel, lineno, "perf/frame-by-value",
                         f"parameter '{type_name} {param}' is taken by value — "
                         "pass `const&` to read or `&&` to consume; if this is "
                         "an intentional ownership sink, say so with an inline "
                         "allow", allows)

    def _check_layering(self, path, rel, layer, text, allows):
        my_rank = LAYER_RANK.get(layer)
        if my_rank is None:
            return
        for lineno, line in enumerate(text.splitlines(), start=1):
            m = INCLUDE_RE.match(line)
            if not m:
                continue
            dep = m.group(1)
            dep_rank = LAYER_RANK.get(dep)
            if dep_rank is None:
                self._report(path, rel, lineno, "layering/upward-include",
                             f"include of unknown layer 'src/{dep}/' — add it to "
                             "LAYER_RANK in tools/msn_lint.py and the DAG in DESIGN.md §11",
                             allows)
            elif dep != layer and dep_rank >= my_rank:
                self._report(path, rel, lineno, "layering/upward-include",
                             f"src/{layer}/ (rank {my_rank}) must not include src/{dep}/ "
                             f"(rank {dep_rank}); the DAG flows {LAYER_DAG_TEXT}",
                             allows)

    def _check_header_guard(self, path, rel, text, code, allows):
        expected = guard_name_for(rel)
        lines = code.splitlines()
        for lineno, line in enumerate(lines, start=1):
            if PRAGMA_ONCE_RE.match(line):
                self._report(path, rel, lineno, "header/guard",
                             f"#pragma once — this repo uses include guards ({expected})",
                             allows)
                return
        ifndef_re = re.compile(r"^\s*#\s*ifndef\s+([A-Za-z0-9_]+)")
        define_re = re.compile(r"^\s*#\s*define\s+([A-Za-z0-9_]+)")
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or not stripped.startswith("#"):
                continue
            m = ifndef_re.match(line)
            if not m:
                self._report(path, rel, lineno, "header/guard",
                             f"first preprocessor directive is not the include guard "
                             f"#ifndef {expected}", allows)
                return
            if m.group(1) != expected:
                self._report(path, rel, lineno, "header/guard",
                             f"guard {m.group(1)} should be {expected} (derived from path)",
                             allows)
                return
            # The guard's #define must follow immediately.
            rest = lines[lineno:]
            for offset, nxt in enumerate(rest, start=lineno + 1):
                if not nxt.strip():
                    continue
                d = define_re.match(nxt)
                if not d or d.group(1) != expected:
                    self._report(path, rel, offset, "header/guard",
                                 f"#ifndef {expected} not followed by #define {expected}",
                                 allows)
                return
            return
        self._report(path, rel, 1, "header/guard",
                     f"no include guard found (expected {expected})", allows)

    def _check_using_namespace(self, path, rel, code, allows):
        for lineno, line in enumerate(code.splitlines(), start=1):
            if USING_NAMESPACE_RE.search(line):
                self._report(path, rel, lineno, "header/using-namespace",
                             "`using namespace` in a header leaks into every includer",
                             allows)

    def _check_metric_names(self, path, rel, text, allows):
        if path.suffix not in (".h", ".cc"):
            return
        for m in METRIC_CALL_RE.finditer(text):
            literal = m.group(1)[1:-1]
            terminator = m.group(2)
            lineno = text.count("\n", 0, m.start()) + 1
            if terminator == "+":
                # Prefix/suffix of a concatenated name: charset only, plus a
                # namespace check when the piece pins the first segment.
                if not METRIC_PIECE_RE.match(literal):
                    self._report(path, rel, lineno, "telemetry/metric-name",
                                 f'"{literal}" — metric name pieces are lowercase '
                                 "[a-z0-9_.] only", allows)
                elif "." in literal and \
                        literal.split(".", 1)[0] not in METRIC_NAMESPACES:
                    self._report(path, rel, lineno, "telemetry/metric-name",
                                 f'"{literal}" — namespace '
                                 f'"{literal.split(".", 1)[0]}" is not registered '
                                 "in METRIC_NAMESPACES", allows)
            else:
                if not METRIC_FULL_NAME_RE.match(literal):
                    self._report(path, rel, lineno, "telemetry/metric-name",
                                 f'"{literal}" — expected "<subsystem>.<noun>" '
                                 '(lowercase dot-path, e.g. "ha.bindings")', allows)
                elif literal.split(".", 1)[0] not in METRIC_NAMESPACES:
                    self._report(path, rel, lineno, "telemetry/metric-name",
                                 f'"{literal}" — namespace '
                                 f'"{literal.split(".", 1)[0]}" is not registered '
                                 "in METRIC_NAMESPACES", allows)
                elif not metric_numeric_segments_ok(literal):
                    self._report(path, rel, lineno, "telemetry/metric-name",
                                 f'"{literal}" — all-digit segments are only '
                                 "allowed at the index position of a registered "
                                 "indexed sub-namespace "
                                 "(INDEXED_METRIC_SUBNAMESPACES)", allows)


def collect_files(root: Path, paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        path = (root / p) if not Path(p).is_absolute() else Path(p)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.h")))
            files.extend(sorted(path.rglob("*.cc")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(p)
    return files


def lint_paths(root: Path, paths: list[str]) -> list[Violation]:
    linter = Linter(root)
    for f in collect_files(root, paths):
        linter.lint_file(f)
    return linter.violations


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent),
                        help="repository root (for layer/guard path derivation)")
    parser.add_argument("--list-rules", action="store_true", help="print the rule catalog")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:26} {desc}")
        return 0

    try:
        violations = lint_paths(Path(args.root), args.paths or ["src"])
    except FileNotFoundError as e:
        print(f"msn_lint: no such path: {e}", file=sys.stderr)
        return 2

    for v in violations:
        print(v)
    if violations:
        print(f"msn_lint: {len(violations)} violation(s) in "
              f"{len({str(v.path) for v in violations})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
