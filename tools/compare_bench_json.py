#!/usr/bin/env python3
"""Compare a candidate BENCH_*.json against a checked-in baseline.

Stdlib-only regression gate used by the CI perf-smoke step (and handy
locally):

    python3 tools/compare_bench_json.py baseline.json candidate.json

Three kinds of checks, keyed off how msn-bench-v1 serializes values:

  * Determinism: every baseline row must exist in the candidate (same
    label), and integer row values — the deterministic counts such as
    hops_forwarded, delivered, events_executed, packet_copies — must match
    exactly. Simulation results for a fixed seed are not allowed to drift.
    Float row values are timing-derived (wall_ms, pps) and are skipped at
    row granularity — unless the baseline has no summaries. A bench that
    reports no wall-clock value reports only simulated results, so then
    every row value, floats included (simulated RTTs, kbps), must match
    exactly.

  * Performance: every baseline summary must exist in the candidate, and
    its mean may not regress by more than --tolerance (default 10%). The
    direction of "worse" comes from the summary unit: time-like and
    count-like units (ns, ms, copies, ...) regress upward, throughput-like
    units (pps, eps, ...) regress downward. A zero baseline mean for a
    lower-is-better unit allows the candidate up to --zero-slack (default
    1.0) instead of a ratio.

  * Metrics: the exported MetricsRegistry snapshot is simulated state, so
    the candidate's "metrics" section must equal the baseline's exactly:
    the same name set, and for every name the same type and every value.
    Each name that differs is listed.

Exit status: 0 on pass, 1 on any regression or structural mismatch.
"""

import argparse
import json
import sys

SCHEMA = "msn-bench-v1"

# Units where a larger mean is a regression. Everything else (pps, eps,
# ops, ratios) is treated as throughput: smaller is a regression.
LOWER_IS_BETTER_UNITS = {
    "ns", "us", "ms", "s", "sec", "seconds", "copies", "allocs",
    "bytes", "events", "drops",
}

# Row-value keys that are wall-clock-derived even when a whole-valued double
# happens to serialize without a fractional part. These are never gated at
# row granularity; their means go through the summary tolerance instead.
TIMING_KEY_TOKENS = (
    "wall", "pps", "eps", "per_sec", "per_hop", "ns_", "_ns", "_ms", "ms_",
    "rate", "latency",
)


def is_timing_key(key):
    lowered = key.lower()
    return any(token in lowered for token in TIMING_KEY_TOKENS)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"{path}: schema must be {SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    return doc


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def compare_rows(base, cand):
    """Yields error strings for deterministic row mismatches: integer values,
    or every value when the baseline has no wall-clock summaries."""
    exact = not base.get("summaries")
    cand_rows = {}
    for row in cand.get("rows", []):
        cand_rows[row["label"]] = row.get("values", {})
    for row in base.get("rows", []):
        label = row["label"]
        if label not in cand_rows:
            yield f"row '{label}' missing from candidate"
            continue
        cand_values = cand_rows[label]
        for key, value in row.get("values", {}).items():
            if not exact and (not is_int(value) or is_timing_key(key)):
                continue  # Timing-derived; gated via summaries instead.
            if key not in cand_values:
                yield f"row '{label}' value '{key}' missing from candidate"
            elif cand_values[key] != value:
                yield (f"row '{label}' value '{key}' changed: "
                       f"{value} -> {cand_values[key]} "
                       "(simulated results must match exactly)")


def compare_metrics(base, cand):
    """Yields one error string per metric name that differs."""
    base_metrics = {m["name"]: m for m in base.get("metrics", [])}
    cand_metrics = {m["name"]: m for m in cand.get("metrics", [])}
    for name in sorted(base_metrics.keys() | cand_metrics.keys()):
        if name not in cand_metrics:
            yield f"metric '{name}' missing from candidate"
        elif name not in base_metrics:
            yield f"metric '{name}' not in baseline"
        elif base_metrics[name]["type"] != cand_metrics[name]["type"]:
            yield (f"metric '{name}' type changed: "
                   f"{base_metrics[name]['type']} -> {cand_metrics[name]['type']}")
        else:
            base_entry, cand_entry = base_metrics[name], cand_metrics[name]
            for key in sorted(base_entry.keys() | cand_entry.keys()):
                if base_entry.get(key) != cand_entry.get(key):
                    yield (f"metric '{name}' {key} changed: "
                           f"{base_entry.get(key)} -> {cand_entry.get(key)}")


def compare_summaries(base, cand, tolerance, zero_slack):
    """Yields (status, message) pairs; status is 'ok' or 'fail'."""
    cand_summaries = {s["name"]: s for s in cand.get("summaries", [])}
    for summary in base.get("summaries", []):
        name = summary["name"]
        if name not in cand_summaries:
            yield "fail", f"summary '{name}' missing from candidate"
            continue
        unit = summary.get("unit", "")
        base_mean = summary["mean"]
        cand_mean = cand_summaries[name]["mean"]
        lower_better = unit in LOWER_IS_BETTER_UNITS
        arrow = f"{base_mean:g} -> {cand_mean:g} {unit}".strip()
        if lower_better:
            if base_mean == 0:
                ok = cand_mean <= zero_slack
                limit = f"zero baseline, slack {zero_slack:g}"
            else:
                ok = cand_mean <= base_mean * (1.0 + tolerance)
                limit = f"limit {base_mean * (1.0 + tolerance):g}"
        else:
            ok = cand_mean >= base_mean * (1.0 - tolerance)
            limit = f"floor {base_mean * (1.0 - tolerance):g}"
        status = "ok" if ok else "fail"
        yield status, f"summary '{name}': {arrow} ({limit})"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="checked-in baseline BENCH json")
    parser.add_argument("candidate", help="freshly produced BENCH json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional mean regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--zero-slack", type=float, default=1.0,
                        help="allowed absolute mean when a lower-is-better "
                             "baseline mean is zero (default 1.0)")
    args = parser.parse_args(argv[1:])

    base = load(args.baseline)
    cand = load(args.candidate)
    failures = 0

    if base.get("bench") != cand.get("bench"):
        print(f"FAIL  bench name mismatch: {base.get('bench')!r} vs "
              f"{cand.get('bench')!r}", file=sys.stderr)
        return 1
    if base.get("smoke") != cand.get("smoke"):
        print("FAIL  comparing smoke and non-smoke runs "
              f"(baseline smoke={base.get('smoke')}, "
              f"candidate smoke={cand.get('smoke')})", file=sys.stderr)
        return 1

    for error in compare_rows(base, cand):
        print(f"FAIL  {error}", file=sys.stderr)
        failures += 1

    for error in compare_metrics(base, cand):
        print(f"FAIL  {error}", file=sys.stderr)
        failures += 1

    for status, message in compare_summaries(base, cand, args.tolerance,
                                             args.zero_slack):
        if status == "fail":
            print(f"FAIL  {message}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok    {message}")

    name = base.get("bench")
    if failures:
        print(f"FAIL  {name}: {failures} regression(s) vs {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"ok    {name}: no regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
