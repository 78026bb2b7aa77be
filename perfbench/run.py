#!/usr/bin/env python3
"""Builds the benchmark and runs it.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates from source; the target directory is
CARGO_TARGET_DIR, or .bench_build at the repository root. The last line
of standard output is the JSON result. Exits non-zero, printing no
result, when the build or the run fails.

Every workload runs pinned to one CPU (the lowest the process may use).
On a shared virtual machine a server session's thread hand-offs across
vCPUs stall whenever the host deschedules one of them; on one CPU they
are plain context switches. Pinned, the calibration kernel the
benchmark times between measuring windows also runs on the CPU the
sessions ran on, so it tracks that CPU's speed.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:]
    cpu = min(os.sched_getaffinity(0))

    def pin():
        os.sched_setaffinity(0, {cpu})

    return subprocess.run([exe] + args, env=env, preexec_fn=pin).returncode


if __name__ == "__main__":
    sys.exit(main())
