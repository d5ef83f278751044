#!/usr/bin/env python3
"""Build busytime-cli and the benchmark harness, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-small --seed 1 --seconds 12 --trace 0

`--trace 0` runs `loadgen` (end-to-end metrics, tracing off); `--trace 1`
runs `tracer` (per-layer metrics). `--smoke` runs the workload at a tiny
size. Builds go to $CARGO_TARGET_DIR (default `.bench_build`); run-time
files go to its `perfbench-work/` directory. The last line of stdout is the
result object; the exit status is 0 only for a valid run.

Every process the run starts shares one process group. Once the harness
exits, anything left in the group is killed and the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HARNESS_LIMIT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """sha256 over the files that build busytime-cli, for the result header."""
    h = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("src", "crates", "vendor"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            paths += [os.path.relpath(os.path.join(dirpath, f), root) for f in sorted(filenames)]
    for rel in paths:
        full = os.path.join(root, rel)
        if os.path.isfile(full):
            h.update(rel.encode())
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit(root):
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cargo_build(args, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet", *args],
                          stdout=sys.stderr, env=env)
    if done.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "src/bin/busytime-cli.rs", "perfbench/harness/Cargo.toml"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of a busytime checkout")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = "tracer" if opts.trace else "loadgen"
    cargo_build(["--bin", "busytime-cli"], target)
    cargo_build(["--manifest-path", "perfbench/harness/Cargo.toml", "--bin", binary], target)

    work = os.path.join(target, "perfbench-work", opts.workload)
    os.makedirs(work, exist_ok=True)
    host = f"commit={commit(root)} source={source_digest(root)}"
    cmd = [os.path.join(target, "release", binary),
           "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds),
           "--cli", os.path.join(target, "release", "busytime-cli"),
           "--work", work, "--host", host]
    if opts.smoke:
        cmd.append("--smoke")

    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=HARNESS_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"{binary} ran over {HARNESS_LIMIT_S} s", 3)

    # the harness stops every server it starts; anything still in its
    # process group outlived the run
    leftover = group_alive(child.pid)
    if leftover:
        os.killpg(child.pid, signal.SIGKILL)
        deadline = time.time() + 5
        while group_alive(child.pid) and time.time() < deadline:
            time.sleep(0.05)

    lines = out.rstrip("\n").split("\n")
    if child.returncode == 2 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"{binary} could not run the workload (exit {child.returncode})")
    if leftover:
        lines.insert(-1, "  INVALID: processes outlived the run and were killed")
        lines[-1] = lines[-1].replace('"correct": true', '"correct": false', 1)
    print("\n".join(lines), flush=True)
    sys.exit(1 if leftover or child.returncode != 0 else 0)


if __name__ == "__main__":
    main()
