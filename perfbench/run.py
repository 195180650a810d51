#!/usr/bin/env python3
"""Build the `photon` binary and the benchmark from source, then run it.

    python3 perfbench/run.py --workload fl-compute --seed 1 --seconds 20 --trace 0

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`). Once built, this process is replaced by the
benchmark binary, so the benchmark runs as a single process; its last
line of standard output is the JSON result. Traces and scratch files go
under `.bench_out/`.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "photon-cli"))
            and os.path.isfile(manifest)):
        sys.stderr.write("perfbench: run from the root of a Photon-RS checkout\n")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "photon-cli", "--bin", "photon"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
    ]
    for cmd in builds:
        # Build output goes to stderr; stdout carries only the result.
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    args = [bench] + sys.argv[1:] + ["--photon", os.path.join(release, "photon")]
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    sys.exit(main())
