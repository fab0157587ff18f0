#!/usr/bin/env python3
"""End-to-end locator benchmark: builds e2ebench from source and runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload paper9|replay|random|all --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

`--workload all` runs the three workloads one after another.

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
under the repository root; a traced run also leaves its Chrome trace and
per-layer report in the out/ directory there. Build output goes to stderr,
so the last stdout line is the benchmark's JSON result. The exit code is
the benchmark's: non-zero when the build fails or any locate call fails its
correctness check.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper9", "replay", "random"]
EXPECTED = {"paper9": os.path.join(HERE, "expected_paper9.txt")}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def run_child(cmd, stdout, echo=False):
    """Runs cmd in a process group of its own and returns its exit code.

    If this script is interrupted, the whole group (a build's make and
    compiler processes too) is killed and waited for. With echo, the
    child's stdout is copied line by line to ours.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        if echo:
            for line in proc.stdout:
                sys.stdout.write(line)
                sys.stdout.flush()
        return proc.wait()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(out, targets):
    """Configures and builds targets in out; False if either step fails."""
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(3, os.cpu_count() or 1)))
        # make runs as our direct child, not under `cmake --build`, so
        # that the compilers stay in the process group run_child stops.
        for cmd in (["cmake", "-G", "Unix Makefiles", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["make", "-C", out, "-j", jobs] + targets):
            if run_child(cmd, stdout=sys.stderr) != 0:
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's helpers and protocol runner")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    # Turn a termination request into an exception, so that the child
    # process is killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    out = build_dir()
    target = "e2ebench_selftest" if args.self_test else "e2ebench"
    try:
        built = build(out, [target])
    except OSError as err:
        print(f"e2ebench: cannot build: {err}", file=sys.stderr)
        return 1
    if not built:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    if args.self_test:
        return run_child([os.path.join(out, target), EXPECTED["paper9"]],
                         stdout=subprocess.PIPE, echo=True)

    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [os.path.join(out, "e2ebench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", results]
        if workload in EXPECTED:
            cmd += ["--expected", EXPECTED[workload]]
        status = run_child(cmd, stdout=subprocess.PIPE, echo=True) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
