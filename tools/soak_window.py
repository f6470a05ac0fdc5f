#!/usr/bin/env python3
"""Run a golden-soak window over several processes and merge the output.

Usage:
    python3 tools/soak_window.py FIRST..LAST [--jobs N] [--fuzz-main PATH]

Splits the seed window into N contiguous shards, runs
`fuzz_main --soak A..B` once per shard in parallel, and prints what one
`fuzz_main --soak FIRST..LAST` process would: every per-seed line in seed
order, then the footer (`# seeds FIRST..LAST: K failed` and one
`# <oracle> <seeds>` line per failing oracle, sorted by oracle name).
Because each seed runs in a fresh testbed, the merged output is byte-identical
to the single-process one, so it can be compared with `cmp` against a golden
file or against the same window at another commit.

Exit status: 0 if every seed passed, 1 if some seed failed an oracle, 2 on a
usage error or if a shard exited with anything else.
"""

import argparse
import collections
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

SEED_LINE = re.compile(r"^seed=\d+ verdict=(\S+) ")
ORACLE_LINE = re.compile(r"^# (\S+) (\d+)$")


def parse_window(text):
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if match is None:
        raise argparse.ArgumentTypeError("window must be FIRST..LAST")
    first, last = int(match.group(1)), int(match.group(2))
    if first < 1 or last < first:
        raise argparse.ArgumentTypeError("window needs 1 <= FIRST <= LAST")
    return first, last


def shards(first, last, jobs):
    count = last - first + 1
    jobs = max(1, min(jobs, count))
    size, extra = divmod(count, jobs)
    start = first
    for i in range(jobs):
        end = start + size - 1 + (1 if i < extra else 0)
        yield start, end
        start = end + 1


def run_shard(fuzz_main, first, last):
    proc = subprocess.run([fuzz_main, "--soak", f"{first}..{last}"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          check=False)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{fuzz_main} --soak {first}..{last} exited with {proc.returncode}")
    # A seed line names only its first failing oracle; the footer counts
    # every oracle a seed failed, so per-oracle totals come from the footers.
    lines, per_oracle = [], collections.Counter()
    for line in proc.stdout.splitlines():
        if line.startswith("seed="):
            lines.append(line)
        elif (match := ORACLE_LINE.match(line)) is not None:
            per_oracle[match.group(1)] += int(match.group(2))
    return lines, per_oracle


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("window", type=parse_window, help="seed window FIRST..LAST")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="parallel fuzz_main processes (default: CPU count)")
    parser.add_argument("--fuzz-main", default="build/examples/fuzz_main",
                        help="fuzz_main binary (default: build/examples/fuzz_main)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    first, last = args.window

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(run_shard, args.fuzz_main, a, b)
                   for a, b in shards(first, last, args.jobs)]
        lines, per_oracle = [], collections.Counter()
        try:
            for future in futures:
                shard_lines, shard_oracles = future.result()
                lines += shard_lines
                per_oracle += shard_oracles
        except RuntimeError as err:
            print(err, file=sys.stderr)
            return 2

    failed = 0
    for line in lines:
        match = SEED_LINE.match(line)
        if match is None:
            print(f"unexpected soak line: {line}", file=sys.stderr)
            return 2
        failed += match.group(1) != "pass"
        print(line)
    if len(lines) != last - first + 1:
        print(f"expected {last - first + 1} seed lines, got {len(lines)}", file=sys.stderr)
        return 2
    print(f"# seeds {first}..{last}: {failed} failed")
    for oracle in sorted(per_oracle):
        print(f"# {oracle} {per_oracle[oracle]}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
