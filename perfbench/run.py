#!/usr/bin/env python3
"""Builds the benchmark and the campaign daemon from source, then runs one
workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to standard error; the benchmark's last line of standard output is
its JSON result. Exits non-zero, without a result, when either build
fails.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "robustify_bench", "--bin", "campaign_server"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    server = os.path.join(release, "campaign_server")
    sys.stdout.flush()
    os.execv(bench, [bench, "--server-bin", server] + sys.argv[1:])


if __name__ == "__main__":
    main()
