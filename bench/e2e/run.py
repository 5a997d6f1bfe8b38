#!/usr/bin/env python3
"""Build primsel-e2e from this checkout and run one workload of it.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a primsel checkout. The first call configures and
builds the benchmark (the library, Release flags with asserts on) into
.bench_build/e2e; later calls rebuild incrementally. Build output goes to
stderr. The workload's output is passed through, so the last stdout line is
the result JSON: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics, or the per-layer metrics when --trace 1. The exit code
is the workload's (nonzero on a wrong output or an invalid run).
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "e2e")
# One run ends well inside three minutes; a hung one is stopped here.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join("bench", "e2e"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a primsel checkout "
             "(no CMakeLists.txt and src/ here)")
    build()

    cmd = [os.path.join(BUILD_DIR, "primsel-e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD_DIR, "traces")]
    # Own process group, so a timeout also stops the reference child.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
