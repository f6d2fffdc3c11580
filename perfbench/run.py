#!/usr/bin/env python3
"""Build `depkit` and the benchmark harness from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mem --seed 1 --seconds 10 --trace 0

Workloads: serve-mem, serve-wal, discover-tall, discover-wide. Both builds
go to $CARGO_TARGET_DIR (default: .bench_build in the repository root);
per-run scratch files and the trace files of `--trace 1` runs go to
.bench_work/. Cargo's output goes to stderr, so the last line of stdout is
the run's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "depkit-cli"],
        [
            "cargo", "build", "--release", "--offline", "--locked",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        rc = subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr)
        if rc != 0:
            print(f"perfbench: `{' '.join(cmd)}` failed with {rc}", file=sys.stderr)
            return rc if rc > 0 else 1
    harness = os.path.join(target, "release", "depkit-perfbench")
    depkit = os.path.join(target, "release", "depkit")
    work = os.path.join(root, ".bench_work")
    return subprocess.call(
        [harness, *sys.argv[1:], "--depkit", depkit, "--work", work], cwd=root
    )


if __name__ == "__main__":
    sys.exit(main())
