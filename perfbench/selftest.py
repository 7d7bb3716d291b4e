#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload, untraced and traced, at the small input sizes and the
default seed, it checks that:
  * every metric BENCHMARK.json names is in the JSON line, with its unit, and
    is finite, and every row of the printed metric tables is finite;
  * no request failed (failed_frac is 0) and the run reports correct.
It then runs once with one recorded hash changed and checks that the command
exits non-zero. Exits 1 on the first failed check.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Every workload of the binary; BENCHMARK.json lists all but epoch-scale.
WORKLOADS = ["chain-serve", "epoch-scale", "market-serve", "game-serve"]
TABLE_ROW = re.compile(r"^#   (\S+)\s+(\S+) (\S+)$")


def run(workload, trace, *extra):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--small", *extra]
    return subprocess.run(command, cwd=ROOT, capture_output=True, text=True)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            check(result.returncode == 0,
                  f"{label} exited {result.returncode}:\n{result.stdout}"
                  f"{result.stderr[-2000:]}")
            lines = result.stdout.strip().splitlines()
            report = json.loads(lines[-1])
            check(report["correct"] and report["failed"] == 0,
                  f"{label}: failed_frac is "
                  f"{report['failed']}/{report['attempted']}")
            for metric in wanted[trace]:
                got = report["metrics"].get(metric["name"])
                check(got is not None, f"{label}: {metric['name']} missing")
                check(got["unit"] == metric["unit"],
                      f"{label}: {metric['name']} unit {got['unit']}")
                check(math.isfinite(got["value"]),
                      f"{label}: {metric['name']} = {got['value']}")
            rows = [TABLE_ROW.match(line) for line in lines]
            rows = [row for row in rows if row]
            check(rows, f"{label}: no metric table printed")
            for row in rows:
                check(math.isfinite(float(row.group(2))),
                      f"{label}: table row {row.group(1)} = {row.group(2)}")
            print(f"ok   {label}: {len(rows)} table rows, "
                  f"{report['attempted']} requests, 0 failed")

    # A tampered recorded hash must fail the command.
    expected = (HERE / "expected_hashes.txt").read_text().splitlines()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    tampered = target / "perfbench" / "tampered_hashes.txt"
    for i, line in enumerate(expected):
        if line.startswith("chain-serve small 0 0 "):
            value = int(line.split()[-1])
            expected[i] = f"chain-serve small 0 0 {(value + 1) % 2**64}"
    tampered.write_text("\n".join(expected) + "\n")
    result = run("chain-serve", 0, "--expected", str(tampered))
    check(result.returncode != 0, "a tampered expected hash still exited 0")
    print(f"ok   tampered expected hash: exit {result.returncode}")


if __name__ == "__main__":
    main()
