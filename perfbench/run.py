#!/usr/bin/env python3
"""Builds the benchmark and the interposer from source, then runs it.

    python3 perfbench/run.py --workload <syscall_mix|http_small|exec_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's messages go to stderr so the last line
of stdout stays the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args):
    rc = subprocess.call(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if rc != 0:
        sys.exit(f"perfbench: cargo build {' '.join(args)} failed ({rc})")


def main():
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no interposer sources next to the benchmark; nothing to build")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    # The preload shim and the example hook are cdylibs of the
    # interposer's own workspace; the driver binary is this package.
    cargo_build(["-p", "lazypoline-preload", "-p", "hook_count"])
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe, *sys.argv[1:]])


if __name__ == "__main__":
    main()
