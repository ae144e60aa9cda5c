#!/usr/bin/env python3
"""gisql-bench launcher: builds the benchmark (and the gisql library from
src/) into .bench_build/ under the current directory, then runs one
workload.

    python3 gisql_bench/run.py --workload analytics|lookups|txn_mix \
        --seed N --seconds S --trace 0|1 [--spans-out PATH]

Run it from the root of a gisql checkout. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. A traced run
writes its spans to .bench_build/spans/WORKLOAD.json unless --spans-out
is given. The exit code is the benchmark's: nonzero on a failed build, a
refused environment or any failed answer check.
"""

import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "gisql_bench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time in a checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                return False
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "gisql_bench",
               "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def spans_path(args):
    """Default span file of a traced run, or None."""
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") != "1" or "--spans-out" in opts:
        return None
    # One file per workload, overwritten by its latest traced run.
    name = "%s.json" % opts.get("--workload")
    return os.path.join(".bench_build", "spans", name)


def main():
    if not build():
        print("gisql_bench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    spans = spans_path(args)
    if spans is not None:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        args += ["--spans-out", spans]
    binary = os.path.join(BUILD_DIR, "gisql_bench")
    # A terminated launcher still stops and reaps the benchmark (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([binary] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("gisql_bench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 124
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
