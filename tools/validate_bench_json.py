#!/usr/bin/env python3
"""Validate BENCH_*.json files against the msn-bench-v1 schema.

Stdlib-only checker used by the CI bench-smoke job (and handy locally):

    python3 tools/validate_bench_json.py out/BENCH_*.json

Exit status is non-zero if any file fails validation. The schema is
documented in src/telemetry/export.h; this script is intentionally strict
about structure (required keys, types, section shapes) and lenient about
content (benches may add params/rows/summaries freely).
"""

import json
import math
import re
import sys

SCHEMA = "msn-bench-v1"
NUMBER = (int, float)
METRIC_TYPES = {"counter", "gauge", "histogram"}
# Mirror of METRIC_NAMESPACES in tools/msn_lint.py: the first dot-path segment
# every exported metric name must start with ("check" covers the fuzzer's
# oracle metrics).
METRIC_NAMESPACES = {
    "check", "dev", "fault", "ha", "ip", "link", "mh", "mobility", "repl", "tcp",
}
# Mirror of the sub-namespace registries in tools/msn_lint.py. Indexed
# prefixes name one instance per numeric index ("ha.shard.3.bindings"):
# the segment after the prefix must be all digits, followed by at least one
# noun segment. All-digit segments anywhere else are rejected so that
# per-instance metric families must be registered before they are exported.
INDEXED_METRIC_SUBNAMESPACES = {
    "ha.shard.", "ha.backup.shard.",
}
FLAT_METRIC_SUBNAMESPACES = {
    "ha.admission.", "ha.backup.admission.",
}


# Mirror of METRIC_SEGMENT_RE in tools/msn_lint.py: a testbed medium's
# instance name keeps its subnet's dots ("net-36.134" in
# "link.net-36.134.frames_carried"), so `net-<n>(.<n>)*` reads as one
# segment; everything else splits on dots.
METRIC_SEGMENT_RE = re.compile(r"net-\d+(?:\.\d+)*(?=\.|$)|[^.]+")


def metric_segments(name):
    return METRIC_SEGMENT_RE.findall(name)


def metric_numeric_segments_ok(name):
    for prefix in INDEXED_METRIC_SUBNAMESPACES:
        if name.startswith(prefix):
            index, _, noun = name[len(prefix):].partition(".")
            return (index.isdigit() and noun != "" and
                    not any(seg.isdigit() for seg in metric_segments(noun)))
    return not any(seg.isdigit() for seg in metric_segments(name))


HISTOGRAM_FIELDS = ("count", "sum", "mean", "min", "max", "p50", "p95", "p99")
SUMMARY_BASE_FIELDS = ("count", "mean", "stddev", "min", "max")


class ValidationError(Exception):
    pass


def fail(path, msg):
    raise ValidationError(f"{path}: {msg}")


def require(cond, path, msg):
    if not cond:
        fail(path, msg)


def check_number(value, path, what):
    require(isinstance(value, NUMBER) and not isinstance(value, bool), path,
            f"{what} must be a number, got {type(value).__name__}")
    require(math.isfinite(value), path, f"{what} must be finite, got {value!r}")


def check_scalar(value, path, what):
    if isinstance(value, bool) or isinstance(value, str):
        return
    check_number(value, path, what)


def check_summary(summary, path):
    require(isinstance(summary, dict), path, "summary must be an object")
    require(isinstance(summary.get("name"), str) and summary["name"], path,
            "summary needs a non-empty string 'name'")
    require(isinstance(summary.get("unit"), str), path,
            "summary needs a string 'unit'")
    for field in SUMMARY_BASE_FIELDS:
        require(field in summary, path, f"summary missing '{field}'")
        check_number(summary[field], path, f"summary '{field}'")
    # Percentiles are optional (RunningStats-only summaries omit them) but
    # must arrive as a complete, ordered set when present.
    has_pcts = [p for p in ("p50", "p95", "p99") if p in summary]
    if has_pcts:
        require(len(has_pcts) == 3, path,
                "summary percentiles must be all of p50/p95/p99 or none")
        for p in has_pcts:
            check_number(summary[p], path, f"summary '{p}'")
        require(summary["p50"] <= summary["p95"] <= summary["p99"], path,
                "summary percentiles must be non-decreasing")


def check_row(row, path):
    require(isinstance(row, dict), path, "row must be an object")
    require(isinstance(row.get("label"), str) and row["label"], path,
            "row needs a non-empty string 'label'")
    values = row.get("values")
    require(isinstance(values, dict), path, "row needs an object 'values'")
    for key, value in values.items():
        require(isinstance(key, str) and key, path, "row value keys must be strings")
        check_scalar(value, path, f"row value '{key}'")


def check_metric(metric, path):
    require(isinstance(metric, dict), path, "metric must be an object")
    name = metric.get("name")
    require(isinstance(name, str) and name, path,
            "metric needs a non-empty string 'name'")
    require(name.split(".", 1)[0] in METRIC_NAMESPACES, path,
            f"metric '{name}' namespace {name.split('.', 1)[0]!r} is not one of "
            f"{sorted(METRIC_NAMESPACES)}")
    require(metric_numeric_segments_ok(name), path,
            f"metric '{name}' has an all-digit segment outside the index "
            "position of a registered indexed sub-namespace "
            f"({sorted(INDEXED_METRIC_SUBNAMESPACES)})")
    mtype = metric.get("type")
    require(mtype in METRIC_TYPES, path,
            f"metric '{name}' has unknown type {mtype!r}")
    if mtype == "histogram":
        for field in HISTOGRAM_FIELDS:
            require(field in metric, path, f"histogram '{name}' missing '{field}'")
            check_number(metric[field], path, f"histogram '{name}' field '{field}'")
        require(metric["min"] <= metric["max"], path,
                f"histogram '{name}' has min > max")
        require(metric["p50"] <= metric["p95"] <= metric["p99"], path,
                f"histogram '{name}' percentiles must be non-decreasing")
    else:
        require("value" in metric, path, f"metric '{name}' missing 'value'")
        check_number(metric["value"], path, f"metric '{name}' value")


def check_series(series, path):
    require(isinstance(series, dict), path, "series entry must be an object")
    metric = series.get("metric")
    require(isinstance(metric, str) and metric, path,
            "series needs a non-empty string 'metric'")
    check_number(series.get("interval_ms"), path, f"series '{metric}' interval_ms")
    require(series["interval_ms"] > 0, path,
            f"series '{metric}' interval_ms must be positive")
    points = series.get("points")
    require(isinstance(points, list), path, f"series '{metric}' needs a 'points' list")
    last_t = -math.inf
    for i, point in enumerate(points):
        require(isinstance(point, list) and len(point) == 2, path,
                f"series '{metric}' point {i} must be a [t_ms, value] pair")
        check_number(point[0], path, f"series '{metric}' point {i} t_ms")
        check_number(point[1], path, f"series '{metric}' point {i} value")
        require(point[0] >= last_t, path,
                f"series '{metric}' timestamps must be non-decreasing")
        last_t = point[0]


def validate(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)

    require(isinstance(doc, dict), path, "top level must be an object")
    require(doc.get("schema") == SCHEMA, path,
            f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    require(isinstance(doc.get("bench"), str) and doc["bench"], path,
            "needs a non-empty string 'bench'")
    require(isinstance(doc.get("title"), str) and doc["title"], path,
            "needs a non-empty string 'title'")
    require(isinstance(doc.get("seed"), int) and not isinstance(doc["seed"], bool),
            path, "'seed' must be an integer")
    require(isinstance(doc.get("smoke"), bool), path, "'smoke' must be a boolean")

    expected_name = f"BENCH_{doc['bench']}.json"
    base = path.rsplit("/", 1)[-1]
    require(base == expected_name, path,
            f"file should be named {expected_name} for bench {doc['bench']!r}")

    params = doc.get("params")
    require(isinstance(params, dict), path, "'params' must be an object")
    for key, value in params.items():
        check_scalar(value, path, f"param '{key}'")

    for section, checker in (("summaries", check_summary), ("rows", check_row),
                             ("metrics", check_metric), ("series", check_series)):
        entries = doc.get(section)
        require(isinstance(entries, list), path, f"'{section}' must be a list")
        for entry in entries:
            checker(entry, path)

    # Metric names must be unique and sorted per AddMetrics() call; across
    # calls uniqueness still has to hold for downstream tooling.
    names = [m["name"] for m in doc["metrics"]]
    require(len(names) == len(set(names)), path, "duplicate metric names")

    return len(doc["metrics"]), len(doc["rows"]), len(doc["series"])


def main(argv):
    if len(argv) < 2:
        print(f"usage: {argv[0]} BENCH_*.json [...]", file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        try:
            n_metrics, n_rows, n_series = validate(path)
        except (OSError, json.JSONDecodeError, ValidationError) as err:
            print(f"FAIL  {path}: {err}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok    {path} ({n_metrics} metrics, {n_rows} rows, "
                  f"{n_series} series)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
