#!/usr/bin/env python3
"""The repository benchmark: what it costs the simulator to produce its
results, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: fuzz_soak, fleet_register, fleet_overload, tunnel_echo (see
perfbench/README.md for why each exists, what it stresses, and why
BENCHMARK.json gates all but fleet_overload).

On first use this builds perfbench/msn_perfbench, with the simulator library
from src/, into .bench_build/perfbench. Each workload then runs in its own
single-threaded process. The report goes to stdout; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}:

  --trace 0  an untraced run of a fixed number of passes, set by --seconds;
             end-to-end metrics (ops_per_s, setup_s, peak_rss_mb).
  --trace 1  the traced pass, run in two processes so every per-layer count
             is checked to repeat exactly; per-layer metrics, the tracing
             overhead, and how much of the wall time the layers explain.

Counted op failures (an oracle violation, a registrant that gave up, a lost
or corrupted echo) are reported in `failed`; only a benchmark-correctness
error (or a count that drifts between processes) makes `correct` false and
the exit code nonzero.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("fuzz_soak", "fleet_register", "fleet_overload", "tunnel_echo")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _run_build_step(cmd):
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                          env=dict(os.environ, TMPDIR=str(tmp)))
    if proc.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            _run_build_step(cmd)
        _run_build_step(["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, os.cpu_count() or 1))])
    return BUILD_DIR / "msn_perfbench"


def run_driver(binary, args):
    """Runs the driver once (its own process) and returns its JSON."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with code {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed nothing")
    return json.loads(lines[-1])


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """Identifies the measured code in checkouts that carry no git metadata."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metadata(result, args, first_fuzz_seed):
    build = result["build"]
    comparable = (build["type"] in ("Release", "RelWithDebInfo") and build["optimized"]
                  and not build["sanitizer"])
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seed": args.seed,
        "first_fuzz_seed": first_fuzz_seed,
        "build_type": build["type"],
        "compiler": build["compiler"],
        "msn_asserts": build["asserts"],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "source_digest": source_digest(),
        "comparable": comparable,
    }


def driver_args(args, mode):
    out = ["--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds)]
    if args.first_fuzz_seed is not None:
        out += ["--first-fuzz-seed", str(args.first_fuzz_seed)]
    if args.fuzz_seeds is not None:
        out += ["--fuzz-seeds", str(args.fuzz_seeds)]
    return out


def failure_lines(name, result_pass):
    lines = [analysis.format_ratio(f"{name} failed_ratio", result_pass["failed"],
                                   result_pass["attempted"], "attempted ops")]
    lines += [f"{name}   failed op: {f}" for f in result_pass["failures"]]
    lines += [f"{name}   CORRECTNESS ERROR: {e}" for e in result_pass["errors"]]
    return lines


def timed_report(binary, args):
    result = run_driver(binary, driver_args(args, "timed"))
    t = result["timed"]
    w = args.workload
    passes = result["unit_passes"]
    best = analysis.fastest_units(passes)
    if best is None:
        t["errors"].append("passes over the same work produced different units")
        best = passes[0]
    ops_per_s = analysis.ratio(result["ops_per_pass"], sum(best))
    # Set-ups, like units, are timed at their fastest pass.
    setup = analysis.fastest_units(result["setup_passes"])
    if setup is None:
        t["errors"].append("passes over the same work produced different set-ups")
        setup = []
    setup_s = analysis.median(setup)
    setup_what = "seed boots" if w == "fuzz_soak" else "fixture builds"
    rss_mb = result["peak_rss_kb"] / 1024.0
    lines = ["perfbench_meta " + json.dumps(metadata(result, args, result["first_fuzz_seed"]))]
    lines.append(f"{w} ops_per_s = {ops_per_s:.6g} 1/s ({result['ops_per_pass']} ops per pass;"
                 f" each of its {len(best)} units timed at its fastest of {len(passes)} passes)")
    lines.append(f"{w}   all passes: {analysis.ratio(t['ops'], t['op_wall_s']):.6g} ops per second"
                 f" of op wall time ({t['ops']} ops in {t['op_wall_s']:.4f} s)")
    lines += failure_lines(w, t)
    lines.append(f"{w} setup_s = {setup_s:.6g} s (median over {len(setup)} {setup_what}, each"
                 f" at its fastest of {len(passes)} passes)")
    lines.append(f"{w} peak_rss_mb = {rss_mb:.6g} MB")
    if w == "fuzz_soak":
        ms = [s * 1e3 for s in best]
        parts = [f"seed_ms_p50 = {analysis.percentile(ms, 50):.4g} ms",
                 f"seed_ms_p90 = {analysis.percentile(ms, 90):.4g} ms"]
        tail = analysis.tail_percentile(len(ms))
        if tail is not None and tail not in (50.0, 90.0):
            parts.append(f"seed_ms_p{tail:g} = {analysis.percentile(ms, tail):.4g} ms")
        lines.append(f"{w} " + "; ".join(parts) + f" (n={len(ms)} seeds, each at its fastest"
                     " pass; highest percentile with"
                     f" >= {analysis.MIN_SAMPLES_BEYOND} samples beyond it: "
                     f"{'p%g' % tail if tail is not None else 'none'})")
    metrics = {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    correct = not t["errors"] and t["attempted"] > 0
    return lines, {"correct": correct, "attempted": t["attempted"], "failed": t["failed"],
                   "metrics": metrics}


def unit_of(name):
    if name.endswith("_ns") or name.split(".", 1)[1].startswith("ns_per_"):
        return "ns"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_op"):
        return "count/op"
    if name.endswith("_per_burst"):
        return "count/burst"
    return "ratio"


def overhead_ratio(result):
    untraced, traced = result["untraced"], result["traced"]
    return analysis.ratio(analysis.ratio(untraced["ops"], untraced["op_wall_s"]),
                          analysis.ratio(traced["ops"], traced["op_wall_s"]))


def traced_report(binary, args):
    extra = ["--inject-drift"] if args.inject_drift else []
    runs = [run_driver(binary, driver_args(args, "traced") + extra) for _ in range(2)]
    a = runs[0]
    w = args.workload
    tr, un = a["traced"], a["untraced"]
    ops = tr["ops"]
    lines = ["perfbench_meta " + json.dumps(metadata(a, args, a["first_fuzz_seed"]))]

    # Cross-process determinism: every count, and the pass outcome, must repeat.
    drift = analysis.drifting_counts([
        dict(r["counts"], **{"pass.ops": r["traced"]["ops"],
                             "pass.attempted": r["traced"]["attempted"],
                             "pass.failed": r["traced"]["failed"]}) for r in runs])
    if drift:
        lines.append(f"{w} determinism: DRIFT between two processes with seed {args.seed} in: "
                     + ", ".join(drift))
    else:
        lines.append(f"{w} determinism: all {len(a['counts'])} counts repeat exactly across"
                     f" 2 processes with seed {args.seed}")
    lines += failure_lines(w, tr)

    spans = [(s[0], s[1], s[2], int(s[3])) for s in a["spans"]]
    by_name = analysis.self_time_by_name(spans)
    total_us = sum(end - start for _, start, end, parent in spans if parent < 0)
    lines.append(f"{w} wall time by span (self time, {len(spans)} spans, {total_us / 1e3:.1f} ms"
                 " traced in total):")
    for name, (self_us, count) in sorted(by_name.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"{w}   {name:<22} {self_us / 1e3:10.2f} ms {analysis.ratio(self_us, total_us):7.2%}"
                     f"  x{count}")
    slices = [(s[5], s[2] - s[1]) for s in a["spans"] if s[0] == "sim.slice" and s[5] > 0]
    if slices:
        ns_per_op = [dur_us * 1e3 / done for done, dur_us in slices]
        lines.append(f"{w} sim.slice wall ns per op completed: p50 {analysis.percentile(ns_per_op, 50):.0f}"
                     f" p90 {analysis.percentile(ns_per_op, 90):.0f} over {len(slices)} slices")

    measured = analysis.ratio(un["op_wall_s"] * 1e9, un["ops"])
    extra_terms = {}
    if w == "fuzz_soak":
        outside_sim_us = by_name.get("check.generate", (0, 0))[0] + by_name.get("check.teardown", (0, 0))[0]
        extra_terms["check"] = analysis.ratio(outside_sim_us * 1e3, ops)
    terms, unexplained = analysis.reconstruct(a["counts"], ops, a["iso_ns"],
                                              a["iso_per_registration"], measured, extra_terms)
    verdict = "within" if abs(unexplained) <= analysis.RECONSTRUCTION_TOLERANCE else "OUTSIDE"
    lines.append(f"{w} reconstruction: measured {measured:.0f} ns/op untraced; "
                 + "; ".join(f"{k} {v:.0f}" for k, v in terms.items())
                 + f"; unexplained {unexplained:.1%} ({verdict} the"
                 f" ±{analysis.RECONSTRUCTION_TOLERANCE:.0%} tolerance)")

    overhead = analysis.median([overhead_ratio(r) for r in runs])
    values = analysis.layer_metrics(a["counts"], ops, a["iso_ns"], by_name, overhead, unexplained)
    for name, value in values.items():
        if name in analysis.RATIO_BASES:
            lines.append(f"{w} " + analysis.ratio_line(name, a["counts"]))
        else:
            lines.append(f"{w} {name} = {value:.6g} {unit_of(name)}")
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    errors = tr["errors"] + runs[1]["traced"]["errors"]
    correct = not errors and not drift and tr["attempted"] > 0
    return lines, {"correct": correct, "attempted": tr["attempted"], "failed": tr["failed"],
                   "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Test hooks: pin the fuzz seed window, and force a count to drift.
    parser.add_argument("--first-fuzz-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--fuzz-seeds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--inject-drift", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        binary = build()
        report = traced_report if args.trace else timed_report
        lines, result = report(binary, args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
