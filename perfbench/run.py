#!/usr/bin/env python3
"""Build and run the paper-campaign cost ledger (`perfbench`).

    python3 perfbench/run.py --workload paper-1pct|reference-runs \
        [--seed N] [--seconds S] [--trace 0|1] [--input-seed N]

Run from the repository root. The benchmark is built from source with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`), then run from the repository root with the arguments
passed through. Its last line of standard output is the result JSON;
build output goes to standard error. The exit code is the benchmark's,
or 1 when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main() -> int:
    # A relative target directory is relative to the root, where cargo runs.
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
