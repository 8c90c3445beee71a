#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against the working tree.

    python3 bench/pairs.py --base REV --pairs N --workload W [--seed N] [--scratch DIR]

Every run lasts the S seconds BENCHMARK.json sets (run_seconds).

Exports the base revision (git archive) and the working tree (tracked
and untracked, non-ignored files) into two directories under a scratch
directory, builds perfbench/rflbench.exe in each with dune, then runs
the two binaries alternately, N pairs, swapping which side goes first
in every pair. Pair i runs both sides at seed SEED+i. A run is what
perfbench/run.py runs: `rflbench.exe --workload W --seed N --seconds S
--trace 0`, whose last stdout line is the result object.

Prints one markdown table: for every end-to-end metric BENCHMARK.json
declares, plus the peak RSS of the rflbench.exe process (read from
os.wait4 on that child alone, so the dune build never counts), the
base and change medians, the base's interquartile range, the change
in the medians, the pairs the change won, and the range of the
per-pair changes. A row is flagged only when the medians differ by
more than the base's IQR. Exits non-zero when a build or a run fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

BUILD_TIMEOUT_S = 900
RUN_SLACK_S = 150


def fail(msg):
    print("pairs: " + msg, file=sys.stderr)
    sys.exit(1)


def git(root, *args, **kw):
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, **kw).stdout


def export_rev(root, rev, dest):
    """The tree of commit REV, as git archive writes it."""
    os.makedirs(dest)
    tar_path = dest + ".tar"
    with open(tar_path, "wb") as f:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=root, check=True, stdout=f)
    with tarfile.open(tar_path) as t:
        t.extractall(dest)
    os.remove(tar_path)


def export_worktree(root, dest):
    """Every tracked or untracked, non-ignored file of the working tree."""
    names = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in names:
        if not name:
            continue
        rel = os.fsdecode(name)
        src = os.path.join(root, rel)
        if not os.path.isfile(src):  # deleted in the working tree
            continue
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst)


def build(tree):
    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.monotonic()
    r = subprocess.run(["dune", "build", "--root", tree, "./perfbench/rflbench.exe"], cwd=tree, env=env,
                       capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed in " + tree)
    print("pairs: built %s in %.0f s" % (tree, time.monotonic() - t0), file=sys.stderr)
    return os.path.join(tree, "_build", "default", "perfbench", "rflbench.exe")


def run_once(exe, tree, workload, seed, seconds):
    """One benchmark run: (metrics dict, peak RSS in MB of the rflbench process)."""
    out_dir = os.path.join(tree, "perfbench", "_run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--out", out_dir]
    with tempfile.TemporaryFile() as out:
        p = subprocess.Popen(cmd, cwd=tree, stdout=out, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + seconds + RUN_SLACK_S
        while True:
            pid, status, usage = os.wait4(p.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                p.kill()
                os.wait4(p.pid, 0)
                fail("run timed out: " + " ".join(cmd))
            time.sleep(0.05)
        p.returncode = os.waitstatus_to_exitcode(status)
        if p.returncode != 0:
            fail("run exited with code %d: %s" % (p.returncode, " ".join(cmd)))
        out.seek(0)
        lines = out.read().decode().rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        fail("run reported failed rounds: %s" % " ".join(cmd))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, usage.ru_maxrss / 1024.0  # Linux reports KiB


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def fmt(x):
    if x == 0 or abs(x) >= 1000:
        return "%.0f" % x
    if abs(x) >= 10:
        return "%.1f" % x
    return "%.4g" % x


def table(rows, base_runs, head_runs):
    out = ["| metric | unit | base median | base IQR | change median | Δ median | pairs won | per-pair Δ range | flag |",
           "|---|---|---|---|---|---|---|---|---|"]
    for name, unit, better in rows:
        b = [r[name] for r in base_runs]
        h = [r[name] for r in head_runs]
        bm, hm = statistics.median(b), statistics.median(h)
        q1, q3 = quartiles(b)
        iqr = q3 - q1
        sign = -1.0 if better == "lower" else 1.0
        won = sum(1 for x, y in zip(b, h) if sign * (y - x) > 0)
        rel = [(y - x) / x * 100.0 if x else 0.0 for x, y in zip(b, h)]
        delta = (hm - bm) / bm * 100.0 if bm else 0.0
        flag = ""
        if abs(hm - bm) > iqr:
            flag = "better" if sign * (hm - bm) > 0 else "WORSE"
        out.append("| %s | %s | %s | %s | %s | %+.1f%% | %d/%d | %+.1f%% … %+.1f%% | %s |" % (
            name, unit, fmt(bm), fmt(iqr), fmt(hm), delta, won, len(b), min(rel), max(rel), flag))
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair i uses SEED+i")
    ap.add_argument("--scratch", help="directory for the two trees (default: a fresh temp dir, removed after)")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    try:
        base_rev = git(root, "rev-parse", "--short", "--verify", args.base + "^{commit}", text=True).strip()
    except subprocess.CalledProcessError:
        fail("no such revision: " + args.base)

    scratch = args.scratch or tempfile.mkdtemp(prefix="risefl-pairs-")
    trees = {"base": os.path.join(scratch, "base"), "change": os.path.join(scratch, "change")}
    for t in trees.values():
        if os.path.exists(t):
            fail("%s exists: pass an empty --scratch" % t)
    try:
        export_rev(root, args.base, trees["base"])
        os.makedirs(trees["change"])
        export_worktree(root, trees["change"])
        exes = {side: build(t) for side, t in trees.items()}
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                metrics, rss = run_once(exes[side], trees[side], args.workload, args.seed + i, seconds)
                metrics["peak_rss_mb"] = rss
                runs[side].append(metrics)
                print("pairs: pair %d %s round_s=%.4f rss=%.1f MB" % (i, side, metrics.get("round_s", 0.0), rss),
                      file=sys.stderr)
    finally:
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    print("workload `%s`, base %s vs working tree, %d pairs, %d s per run, seeds %d..%d, nproc %d" % (
        args.workload, base_rev, args.pairs, seconds, args.seed, args.seed + args.pairs - 1,
        os.cpu_count() or 0))
    print()
    print(table(rows + [("peak_rss_mb", "MB", "lower")], runs["base"], runs["change"]))


if __name__ == "__main__":
    main()
