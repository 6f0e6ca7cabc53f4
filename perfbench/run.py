#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench, together with the repository
libraries it links, from source into .bench_build/perfbench; later runs only
rebuild what changed. The workload's report follows, and its last line is the
JSON verdict. When the build fails, the script exits non-zero without a
verdict. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
LOG = os.path.join(ROOT, ".bench_build", "perfbench-build.log")


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/ "
              "(expected src/CMakeLists.txt); nothing to build",
              file=sys.stderr)
        return False
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(LOG, "a") as log:
        ok = True
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            ok = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"] + generator, log) == 0
        if ok:
            ok = run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                             "-j", jobs], log) == 0
    if not ok:
        with open(LOG) as log:
            tail = log.readlines()[-40:]
        print("perfbench: build failed; last lines of " + LOG + ":\n" +
              "".join(tail), file=sys.stderr)
    return ok


def main():
    if not build():
        return 2
    # The workloads fix their own thread counts and execution paths; the
    # repository's CEWS_* environment toggles would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CEWS_")}
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
