#!/usr/bin/env python3
"""Build the HARP benchmark and run one workload.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload svc_steady --seed 1 --seconds 30 --trace 0

It builds the `harpd` daemon from the repository workspace and the
benchmark package in `perfbench/` (both into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs the untraced binary (`--trace 0`, end-to-end
metrics) or the traced binary (`--trace 1`, per-layer metrics). The last
line of standard output is the result object.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("svc_lifecycle", "svc_steady", "sim_scenarios")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def cargo(args, env, deadline):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"build timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    # The benchmark builds the program from this checkout's sources.
    for needed in ("Cargo.toml", "crates/harpd/Cargo.toml", "scenarios",
                   "perfbench/Cargo.toml"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a repository checkout")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    cargo(["-p", "harpd", "--bin", "harpd"], env, deadline)
    cargo(["--manifest-path", "perfbench/Cargo.toml", "--bins"], env, deadline)

    binary = "perfbench-trace" if args.trace else "perfbench"
    cmd = [
        os.path.join(target, "release", binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--harpd", os.path.join(target, "release", "harpd"),
        "--scenarios", "scenarios",
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    env["PERFBENCH_COMMIT"] = commit()
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{binary} did not finish within {RUN_TIMEOUT_S}s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{binary} exited with {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
