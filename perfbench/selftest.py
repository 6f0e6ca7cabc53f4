#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, at tiny sizes (--tiny 1, one-second windows):
  1. every workload, untraced and traced, exits 0 with correct=true, a
     positive attempted count and every metric BENCHMARK.json names, and
     the two runs of a training workload (same seed) print the same
     final-parameter digest;
  2. every workload fails its correctness check (exit code != 0,
     correct=false) when the reference side of the check is perturbed
     (--perturb-reference 1: perturbed parameters in the serving decision
     check, a perturbed reference digest for training);
  3. a directory holding only BENCHMARK.json and perfbench/ (no program
     sources) makes run.py exit non-zero without printing a verdict.
Exits 0 when every check passes.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, timeout=600):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    verdict = None
    if lines:
        try:
            verdict = json.loads(lines[-1])
        except ValueError:
            verdict = None
    return proc, verdict


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    # train_dist is runnable but not in BENCHMARK.json (see README.md).
    workloads = [w["name"] for w in spec["workloads"]] + ["train_dist"]
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    failures = []

    for workload in workloads:
        digests = set()
        for trace in (0, 1):
            proc, verdict = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--tiny", "1"])
            label = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0 or verdict is None or verdict.get("correct") is not True:
                failures.append(label + ": expected a correct run, got exit %d\n%s%s" %
                                (proc.returncode, proc.stdout[-2000:], proc.stderr[-2000:]))
                continue
            missing = [n for n in names[trace] if n not in verdict["metrics"]]
            if missing or verdict["attempted"] < 1 or verdict["failed"] != 0:
                failures.append(label + ": bad verdict %s (missing %s)" % (verdict, missing))
            print("ok   %s: attempted=%d" % (label, verdict["attempted"]))
            digests.update(re.findall(r"final-parameter digest ([0-9a-f]+)", proc.stdout))
        if workload.startswith("train") and len(digests) != 1:
            failures.append(workload + ": runs of one seed printed digests %s" % sorted(digests))

        proc, verdict = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--tiny", "1", "--perturb-reference", "1"])
        label = "%s perturbed reference" % workload
        if proc.returncode == 0 or verdict is None or verdict.get("correct") is not False:
            failures.append(label + ": expected the correctness check to fail, got exit %d, %s"
                            % (proc.returncode, verdict))
        else:
            print("ok   %s: exit %d, correct=false, failed=%d" %
                  (label, proc.returncode, verdict["failed"]))

    # Only BENCHMARK.json and the benchmark's own files: no program to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, verdict = run(["--workload", workloads[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0"], cwd=bare, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or verdict is not None:
        failures.append("bare directory: expected a non-zero exit without a verdict, got "
                        "exit %d, %s" % (proc.returncode, verdict))
    else:
        print("ok   bare directory: exit %d, no verdict" % proc.returncode)

    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
