#!/usr/bin/env python3
"""Build streamsum-server and the benchmark, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Both programs are built in release mode
into $CARGO_TARGET_DIR (default .bench_build); the benchmark's outputs
(result copies, span logs, scratch archives) go to
$CARGO_TARGET_DIR/perfbench. Cargo's output goes to standard error; the
last line of standard output is the benchmark's result object. Exits
non-zero, printing no result, when either build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stt-ingest", "stt-ingest-durable", "gmti-push", "stt-match")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "-p", "sgs-server", "--bin", "streamsum-server"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def output_of(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the two builds read, for checkouts
    without git history."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "rust-toolchain.toml",
                "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    meta = {
        "commit": output_of(["git", "rev-parse", "HEAD"]) or "unknown",
        "source_sha256": source_digest(),
        "rustc": output_of(["rustc", "--version"]) or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
    }
    release = os.path.join(target, "release")
    out_dir = os.path.join(target, "perfbench")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", a.trace,
        "--server-bin", os.path.join(release, "streamsum-server"),
        "--out-dir", out_dir, "--meta", json.dumps(meta),
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
