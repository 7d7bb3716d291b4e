#!/usr/bin/env python3
"""Compares the machine-independent columns of bench tables with baselines.

Run from the directory holding this run's bench JSON (the bench binaries'
`--json=<base>` output):

    python3 tools/check_baselines.py [--baselines bench/baselines] [FILE ...]

FILE defaults to BENCH_enumeration.json, BENCH_convergence.json,
BENCH_des.json and BENCH_des.batch.json. Each file is compared with the
file of the same name under --baselines: title, headers, row count and
every cell of every non-timing column must be equal as text. Timing columns
and fields are skipped: names ending in `_ms`, `ms_mean`, `ms`, `speedup`,
`steps_per_sec`, `ns_per_op`, `events/s`, and any field naming RSS or wall
time. What is left (configuration counts, games, steps, event counts,
trajectory hashes, batch aggregates, the `identical` verdicts) does not
depend on the machine, so any difference is a change in what the code
computes.

Prints one line per difference and exits 1 if there is any (2 if a file is
missing). It only reports; it never rewrites a baseline.
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_FILES = ["BENCH_enumeration.json", "BENCH_convergence.json",
                 "BENCH_des.json", "BENCH_des.batch.json"]
TIMING_NAMES = {"ms", "ms_mean", "speedup", "steps_per_sec", "ns_per_op",
                "events/s"}


def is_timing(name):
    lowered = name.lower()
    return (lowered in TIMING_NAMES or lowered.endswith("_ms") or
            "rss" in lowered or "wall" in lowered)


def compare(name, run, base):
    """Returns the differences between two bench tables, as text lines."""
    diffs = []
    for key in sorted(set(run) | set(base)):
        if key == "rows" or is_timing(key):
            continue
        if run.get(key) != base.get(key):
            diffs.append(f"{name}: field '{key}': run {run.get(key)!r} "
                         f"vs baseline {base.get(key)!r}")
    if diffs:
        return diffs  # different headers make the cells incomparable
    headers = base["headers"]
    run_rows, base_rows = run.get("rows", []), base.get("rows", [])
    if len(run_rows) != len(base_rows):
        return [f"{name}: {len(run_rows)} rows vs {len(base_rows)} in the "
                "baseline"]
    for index, (got, want) in enumerate(zip(run_rows, base_rows)):
        for column, header in enumerate(headers):
            if is_timing(header):
                continue
            if got[column] != want[column]:
                diffs.append(f"{name}: row {index} ({want[0]}) column "
                             f"'{header}': run {got[column]!r} vs baseline "
                             f"{want[column]!r}")
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory of the committed baselines")
    parser.add_argument("files", nargs="*", default=DEFAULT_FILES,
                        help="bench JSON files of this run")
    args = parser.parse_args()

    failed = False
    for file in args.files:
        run_path = Path(file)
        base_path = Path(args.baselines) / run_path.name
        for path in (run_path, base_path):
            if not path.is_file():
                print(f"missing: {path}")
                return 2
        diffs = compare(run_path.name, json.loads(run_path.read_text()),
                        json.loads(base_path.read_text()))
        for line in diffs:
            print(line)
        failed = failed or bool(diffs)
        if not diffs:
            print(f"ok   {run_path.name}: every non-timing column matches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
