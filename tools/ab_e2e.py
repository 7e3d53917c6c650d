#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark (e2ebench) against a base rev.

Run from the repository root:

  python3 tools/ab_e2e.py --base HEAD~1                  # 10 pairs, all workloads
  python3 tools/ab_e2e.py --base HEAD~1 --workloads host_rules --pairs 12
  python3 tools/ab_e2e.py --base HEAD~1 --trace 1 --pairs 4   # per-layer metrics
  python3 tools/ab_e2e.py --selftest                     # the arithmetic below

The base tree is exported from the local git repository with
`git archive` into a scratch directory (default .bench_build/ab/), so
nothing is fetched and no worktree is registered. The head tree is the
working tree, or --head REV exported the same way. Each tree builds its
own e2ebench with its own e2ebench/run.py. A pair runs both trees on the
same seed; the order alternates from pair to pair, so drift on a shared
machine falls on both sides alike.

Per workload and metric it prints the median and quartiles of each side,
the change of the medians, how many pairs the head won, and a verdict
by BENCHMARK.json:
  WORSE  the head's median is worse than the base's by more than the bound
  NOISY  either side's quartile spread (IQR / median) exceeds the bound
  gain   the head won at least 9 of every 10 pairs, and its median beats
         the base's by more than the base's quartile distance
  ok     none of these
Per-layer metrics (--trace 1) have no bound and get only the gain rule.
Exit status 1 if any run failed its correctness check or any metric is
WORSE.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()


def quartiles(values):
    """(q1, median, q3), as e2ebench/run.py computes its spread."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def verdict(base, head, direction, bound):
    """Verdict for paired samples base[i] / head[i] (see the module doc)."""
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    wins = sum(better(h, b, direction) for b, h in zip(base, head))
    change = (hmed - bmed) / bmed if bmed else 0.0
    worse_by = change if direction == "lower" else -change
    if bound is not None:
        if worse_by > bound:
            return "WORSE", wins, change
        spreads = [(q3 - q1) / med if med else float("inf")
                   for q1, med, q3 in ((bq1, bmed, bq3), (hq1, hmed, hq3))]
        if max(spreads) > bound:
            return "NOISY", wins, change
    if 10 * wins >= 9 * len(base) and better(hmed, bmed, direction) and \
            abs(hmed - bmed) > bq3 - bq1:
        return "gain", wins, change
    return "ok", wins, change


def export(rev, dest):
    """Exports `rev` of the local repository into `dest` (replaced)."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        sys.exit("ab_e2e: cannot export %s" % rev)
    return dest


def run(tree, workload, seed, seconds, trace):
    """One e2ebench run in `tree`; returns its result line (a dict)."""
    cmd = [sys.executable, "e2ebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("ab_e2e: no result from %s in %s" % (workload, tree))
    result = json.loads(lines[-1])
    result["ok"] = proc.returncode == 0 and result["correct"] and \
        result["failed"] == 0
    return result


def build(tree):
    """Builds `tree`'s e2ebench (run.py --selftest builds it first)."""
    proc = subprocess.run([sys.executable, "e2ebench/run.py", "--selftest"],
                          cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    if proc.returncode != 0:
        sys.exit("ab_e2e: e2ebench does not build in %s" % tree)


def report(workload, metrics, samples):
    """Prints one workload's table; returns False if a metric is WORSE."""
    print("\n%s: %d pairs (base -> head; median [q1, q3])"
          % (workload, len(samples["base"])))
    print("%-34s %32s %32s %8s %6s  %s" % ("metric", "base", "head",
                                          "change", "wins", "verdict"))
    ok = True
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in samples["base"]
                if name in r["metrics"]]
        head = [r["metrics"][name]["value"] for r in samples["head"]
                if name in r["metrics"]]
        if not base or len(base) != len(head):
            continue
        v, wins, change = verdict(base, head, m["better"], m.get("bound"))
        ok = ok and v != "WORSE"
        fmt = lambda q: "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
        print("%-34s %32s %32s %+7.1f%% %3d/%-2d  %s%s"
              % (name, fmt(quartiles(base)), fmt(quartiles(head)),
                 100 * change, wins, len(base), v,
                 "" if m.get("bound") is None else
                 " (bound %.0f%%)" % (100 * m["bound"])))
    return ok


def selftest():
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    expect(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25),
           "quartiles match statistics.quantiles(n=4)")
    base = [100.0 + i for i in range(10)]
    expect(verdict(base, [b + 20 for b in base], "higher", 0.25)[:2]
           == ("gain", 10), "10/10 wins beyond the base IQR is a gain")
    head = [b + 20 for b in base]
    head[0] = 50.0
    expect(verdict(base, head, "higher", 0.25)[:2] == ("gain", 9),
           "9/10 wins still count as a gain")
    head[1] = 50.0
    expect(verdict(base, head, "higher", 0.25)[:2] == ("ok", 8),
           "8/10 wins are not a gain")
    expect(verdict(base, [b + 2 for b in base], "higher", 0.25)[0] == "ok",
           "a win smaller than the base IQR is not a gain")
    expect(verdict(base, [b * 0.7 for b in base], "higher", 0.25)[0]
           == "WORSE", "a 30% throughput drop exceeds a 25% bound")
    expect(verdict(base, [b * 1.3 for b in base], "lower", 0.25)[0]
           == "WORSE", "a 30% latency rise exceeds a 25% bound")
    expect(verdict(base, [b * 0.5 for b in base], "lower", 0.25)[:2]
           == ("gain", 10), "lower-is-better metrics win by dropping")
    noisy = [10.0, 10.0, 30.0, 30.0, 10.0, 30.0, 10.0, 30.0, 10.0, 30.0]
    expect(verdict(noisy, noisy, "lower", 0.25)[0] == "NOISY",
           "a quartile spread wider than the bound is NOISY")
    expect(verdict(noisy, noisy, "lower", None)[0] == "ok",
           "metrics without a bound are never NOISY")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="git rev to compare against")
    p.add_argument("--head", help="git rev of the change (default: the "
                   "working tree)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated (default: all in "
                   "BENCHMARK.json)")
    p.add_argument("--seconds", type=float, help="default: BENCHMARK.json")
    p.add_argument("--seed", type=int, default=21, help="seed of pair 0; "
                   "pair i runs seed + i on both sides")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scratch", default=os.path.join(ROOT, ".bench_build",
                                                     "ab"))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.selftest:
        return selftest()
    if not a.base:
        p.error("--base is required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench.get("run_seconds", 16)
    workloads = (a.workloads.split(",") if a.workloads else
                 [w["name"] for w in bench["workloads"]])
    metrics = bench["per_layer" if a.trace else "end_to_end"]
    trees = {"base": export(a.base, os.path.join(a.scratch, "base")),
             "head": export(a.head, os.path.join(a.scratch, "head"))
             if a.head else ROOT}
    for tree in trees.values():
        build(tree)

    ok = True
    for workload in workloads:
        samples = {"base": [], "head": []}
        for i in range(a.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                r = run(trees[side], workload, a.seed + i, seconds, a.trace)
                if not r["ok"]:
                    print("%s pair %d: %s run FAILED (correct=%s failed=%s)"
                          % (workload, i, side, r["correct"], r["failed"]))
                    ok = False
                samples[side].append(r)
            print("%s pair %d/%d done" % (workload, i + 1, a.pairs),
                  file=sys.stderr)
        ok = report(workload, metrics, samples) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
