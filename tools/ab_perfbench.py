#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark (perfbench/run.py).

    python3 tools/ab_perfbench.py --parent DIR --change DIR \\
        --workload fleet_register --seed 1 --seconds 30 --pairs 10

Runs `perfbench/run.py --trace 0` in two checkouts, one pair of runs at a
time, alternating which side goes first (the parent in odd pairs, the change
in even ones), so drift on a shared host lands on both sides. Each checkout
first builds its driver with one short warm-up run, which is not counted.

For every end-to-end metric in the change checkout's BENCHMARK.json it
reports each side's median, quartiles and range, and how many pairs the
change won, lost and tied; then the failed ops on each side. A metric's
verdict is "better" or "worse" only when the change wins (or loses) at least
9 of every 10 pairs AND the medians differ by more than the parent's
interquartile range; anything else prints "no difference".

    --save FILE    also write every run's result as JSON
    --results FILE re-report saved results without running anything

Stdlib only. Exit status: 0 when every run completed, 1 if any run failed
(a nonzero exit or a benchmark-correctness error), 2 on bad arguments.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
WARMUP_SECONDS = 1.0


def load_metrics(checkout):
    """(name, better) for each end-to-end metric in BENCHMARK.json."""
    with open(Path(checkout) / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def run_once(checkout, workload, seed, seconds):
    """One untraced perfbench run; returns its JSON result, or a failed one."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {proc.returncode}, no result line"}
    if proc.returncode != 0:
        result["correct"] = False
    return result


def run_pairs(parent, change, workload, seed, seconds, pairs, runner=run_once):
    """Runs `pairs` interleaved pairs; returns [{"first", "parent", "change"}]."""
    for checkout in (parent, change):
        runner(checkout, workload, seed, WARMUP_SECONDS)
    out = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = runner(parent if side == "parent" else change, workload, seed, seconds)
            print(f"pair {i + 1}/{pairs} {side}: {_brief(pair[side])}", file=sys.stderr)
        out.append(pair)
    return out


def _brief(result):
    if not result.get("correct"):
        return "FAILED " + result.get("error", "")
    return ", ".join(f"{k} {v['value']:.6g}" for k, v in sorted(result["metrics"].items()))


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def value(result, metric):
    if not result.get("correct"):
        return None
    return result.get("metrics", {}).get(metric, {}).get("value")


def compare(pairs, metric, better):
    """Pairwise wins and the median-versus-IQR test for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    parent, change = [], []
    wins = losses = ties = 0
    for pair in pairs:
        p, c = value(pair["parent"], metric), value(pair["change"], metric)
        if p is None or c is None:
            continue
        parent.append(p)
        change.append(c)
        delta = sign * (c - p)
        if delta > 0:
            wins += 1
        elif delta < 0:
            losses += 1
        else:
            ties += 1
    n = len(parent)
    if n == 0:
        return {"metric": metric, "pairs": 0, "verdict": "no difference"}
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    iqr = pq3 - pq1
    gap = sign * (cmed - pmed)
    need = math.ceil(WIN_SHARE * n - 1e-9)
    verdict = "no difference"
    if wins >= need and gap > iqr:
        verdict = "better"
    elif losses >= need and -gap > iqr:
        verdict = "worse"
    return {
        "metric": metric, "pairs": n, "wins": wins, "losses": losses, "ties": ties,
        "need": need, "parent_iqr": iqr, "median_gap": gap, "verdict": verdict,
        "parent": {"median": pmed, "q1": pq1, "q3": pq3, "min": min(parent), "max": max(parent)},
        "change": {"median": cmed, "q1": cq1, "q3": cq3, "min": min(change), "max": max(change)},
    }


def failed_ops(pairs, side):
    """(failed ops, attempted ops, runs that did not complete) for one side."""
    failed = attempted = broken = 0
    for pair in pairs:
        result = pair[side]
        if not result.get("correct"):
            broken += 1
        failed += result.get("failed", 0)
        attempted += result.get("attempted", 0)
    return failed, attempted, broken


def report(pairs, metrics, title):
    lines = [title, f"{'metric':<12} {'side':<7} {'median':>12} {'q1':>12} {'q3':>12}"
                    f" {'min':>12} {'max':>12}"]
    for name, better in metrics:
        c = compare(pairs, name, better)
        if c["pairs"] == 0:
            lines.append(f"{name:<12} no completed pairs  => no difference")
            continue
        for side in ("parent", "change"):
            s = c[side]
            label = name if side == "parent" else ""
            lines.append(f"{label:<12} {side:<7} {s['median']:>12.6g} {s['q1']:>12.6g}"
                         f" {s['q3']:>12.6g} {s['min']:>12.6g} {s['max']:>12.6g}")
        moved = c["change"]["median"] - c["parent"]["median"]
        rel = moved / abs(c["parent"]["median"]) if c["parent"]["median"] else 0.0
        lines.append(f"{'':<12} pairs ({better} is better): change won {c['wins']}, lost"
                     f" {c['losses']}, tied {c['ties']} of {c['pairs']} (needs {c['need']});"
                     f" median moved {moved:+.6g} ({rel:+.1%}), parent IQR"
                     f" {c['parent_iqr']:.6g}  => {c['verdict']}")
    for side in ("parent", "change"):
        failed, attempted, broken = failed_ops(pairs, side)
        lines.append(f"failed ops, {side}: {failed} of {attempted}; runs not completed: {broken}")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--save", help="write every run's result here as JSON")
    parser.add_argument("--results", help="report saved results instead of running")
    args = parser.parse_args(argv)
    if args.results is None and not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required unless --results is given")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv):
    args = parse_args(argv)
    if args.results:
        with open(args.results, encoding="utf-8") as f:
            saved = json.load(f)
    else:
        pairs = run_pairs(args.parent, args.change, args.workload, args.seed, args.seconds,
                          args.pairs)
        saved = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "metrics": load_metrics(args.change), "pairs": pairs}
        if args.save:
            with open(args.save, "w", encoding="utf-8") as f:
                json.dump(saved, f, indent=1)
    pairs = saved["pairs"]
    title = (f"{saved['workload']} seed {saved['seed']}, {saved['seconds']:g} s runs,"
             f" {len(pairs)} interleaved pairs")
    print("\n".join(report(pairs, [tuple(m) for m in saved["metrics"]], title)))
    broken = sum(failed_ops(pairs, side)[2] for side in ("parent", "change"))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
