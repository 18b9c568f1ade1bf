#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload service|inproc \\
        --seed N --seconds S --trace 0|1

Builds the `tps-service` binary and the `perfbench` binary from source
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), then
runs `perfbench` with scratch space under `.perfbench-run/`. Build output
goes to stderr; the last line on stdout is the JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    manifest = os.path.join(root, "Cargo.toml")
    if not os.path.isfile(manifest):
        print(f"perfbench: no workspace manifest at {manifest}", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
         "-p", "tps-service", "--bin", "tps-service"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(bench_dir, "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, stdout=sys.stderr, env=env, cwd=root)
        if built.returncode != 0:
            return built.returncode or 1
    release = os.path.join(target, "release")
    run_dir = os.path.join(root, ".perfbench-run", f"run-{os.getpid()}")
    bench = [
        os.path.join(release, "perfbench"), *sys.argv[1:],
        "--service-bin", os.path.join(release, "tps-service"),
        "--run-dir", run_dir,
    ]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
