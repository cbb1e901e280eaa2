#!/usr/bin/env python3
"""Build and run the end-to-end monitoring benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload clean-chatty --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into .bench_build/
at the repository root. The Go build cache, temporary files and the home
directory the toolchain writes to are kept there as well, so a run reads
and writes only inside the checkout. Build output goes to standard error;
the benchmark's own output, ending with one JSON line, to standard output.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=os.path.join(build, "home"),
        XDG_CONFIG_HOME=os.path.join(build, "home", ".config"),
        GOTOOLCHAIN="local",
    )
    for d in ("tmp", "home"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
