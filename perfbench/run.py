#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/rflbench.exe with dune (only it and the libraries it
links), runs it, and relays its output. The last stdout line is the
result object {correct, attempted, failed, metrics}. Run records, span
JSON and the traced-run report are written to perfbench/_run/. Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("no dune-project at %s: run from a full checkout of the repository" % root)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "./perfbench/rflbench.exe"],
            cwd=root, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        fail("build failed")

    exe = os.path.join(root, "_build", "default", "perfbench", "rflbench.exe")
    out_dir = os.path.join(root, "perfbench", "_run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    env["PERFBENCH_COMMIT"] = git_commit(root)
    try:
        run = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not a JSON result")
    if set(result) != RESULT_KEYS:
        fail("result keys %s, expected %s" % (sorted(result), sorted(RESULT_KEYS)))
    # a run whose rounds failed the oracle is reported as such (its
    # timings may be missing); a correct run must carry every value
    if result["correct"]:
        for name, m in result["metrics"].items():
            if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
                fail("metric %s has no numeric value" % name)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
