#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR, default `perfbench/target`, then
runs the binary single-threaded (LIP_JOBS=1) with the given arguments. The
binary prints an information line and, last, the result JSON on stdout. A
traced run (--trace 1) also writes its spans to
`<target dir>/perfbench-out/trace-<workload>-<seed>.json`.

The exit status is the binary's; when the build fails (for instance outside
a full checkout of the repository) the script exits 1 without a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    env["LIP_JOBS"] = "1"
    run = subprocess.run(
        [exe, *sys.argv[1:], "--out", os.path.join(target, "perfbench-out")], env=env
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
