#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chain-serve --seed 1 --seconds 25 \
        --trace 0

The library and the benchmark binary are built (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. Build output goes to stderr; stdout carries the benchmark's report,
whose last line is the JSON result. Any further flags (--small, --expected,
--print-hashes) are passed to the binary unchanged.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def lanes():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", str(lanes())], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "none"


def option(args, name):
    """Value of `--name V` or `--name=V` in args, else None."""
    for i, arg in enumerate(args):
        if arg == name and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
    return None


def main(args):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    extra = ["--commit", commit()]
    if option(args, "--expected") is None:
        extra += ["--expected", str(HERE / "expected_hashes.txt")]
    if option(args, "--trace") == "1" and option(args, "--trace-out") is None:
        workload = option(args, "--workload") or "unknown"
        trace_file = target / f"perfbench-trace-{workload}.json"
        extra += ["--trace-out", str(trace_file)]
    return subprocess.run([str(binary)] + args + extra).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
