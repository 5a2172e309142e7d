#!/usr/bin/env python3
"""Builds and runs the audit benchmark.

Run from the repository root:

    python3 auditbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0
    python3 auditbench/run.py --selftest

The first call configures and builds auditbench/ (libfairem from ../src
plus the auditbench binary) under $CARGO_TARGET_DIR, or .bench_build when
it is unset; later calls reuse that build. The binary's last stdout line is the result JSON.
The binary runs in its own process group, which is killed once it exits,
so no daemon or worker it forked outlives the run.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures and builds the binary; returns its path, or None."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        compile_cmd = ["cmake", "--build", build_dir, "-j", jobs]
        if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(build_dir, "auditbench")
    return binary if os.path.exists(binary) else None


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = build(os.path.join(target, "auditbench"))
    if binary is None:
        print("auditbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(target, "auditbench-run", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    proc = subprocess.Popen([binary, *argv, "--workdir", workdir], cwd=workdir,
                            preexec_fn=os.setpgrp)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("auditbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    # Keep the traced run's Chrome trace; drop sockets and checkpoints.
    traces = os.path.join(target, "auditbench-traces")
    for name in os.listdir(workdir):
        if name.endswith(".trace.json"):
            os.makedirs(traces, exist_ok=True)
            shutil.move(os.path.join(workdir, name), os.path.join(traces, name))
            print("auditbench: trace kept at " + os.path.join(traces, name),
                  file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
