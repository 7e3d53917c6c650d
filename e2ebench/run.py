#!/usr/bin/env python3
"""End-to-end benchmark of the TPStream engine (see README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload flip_storm --seed 1 --seconds 16 --trace 0
  python3 e2ebench/run.py --workload flip_storm --seed 1 --seconds 16 --trace 1
  python3 e2ebench/run.py --selftest     # the benchmark's own arithmetic
  python3 e2ebench/run.py --smoke        # every workload, tiny, end to end
  python3 e2ebench/run.py --baseline 10  # N seeds per workload -> baselines.json

The first run configures and builds the engine from ./src with the
benchmark's own CMake project into .bench_build/. The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json lists (end_to_end without --trace, per_layer with it).
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
# Every metric a run prints, in display order; BENCHMARK.json gates a
# subset of them.
END_TO_END = [
    "max_eps", "alert_p50_us_lo", "alert_p99_us_lo", "alert_p50_us_hi",
    "alert_p99_us_hi", "setup_s", "recover_s", "peak_rss_mb", "failed_frac",
]


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources at ./src; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j",
           str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def source_rev():
    """git revision when run in a clone, else a hash of the engine sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for d, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def machine_class(stamp):
    return "cpus={cpus},simd={simd},compiler={compiler},build={build_type}".format(
        **stamp)


def load_json(path, default=None):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return default


def workload_names(bench):
    return [w["name"] for w in bench.get("workloads", [])]


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare(record, baselines, bounds):
    """Lines comparing a run with the recorded baseline of its class."""
    cls = machine_class(record["stamp"])
    base = baselines.get(cls, {}).get(record["workload"])
    if base is None:
        return ["baseline: no baseline for this class (%s)" % cls]
    lines = ["baseline: %s, %s" % (cls, base.get("rev", "?"))]
    for name, ref in base["metrics"].items():
        got = record["metrics"].get(name)
        if got is None or name not in bounds:
            continue
        better, bound = bounds[name]
        change = (got["value"] - ref["median"]) / ref["median"]
        worse = change > bound if better == "lower" else -change > bound
        lines.append("baseline: %-18s %+7.1f%% vs median %.6g (bound %.0f%%)%s"
                     % (name, 100 * change, ref["median"], 100 * bound,
                        "  WORSE" if worse else ""))
    return lines


def run_one(workload, seed, seconds, trace, smoke=False):
    scratch = os.path.join(ROOT, ".bench_build", "scratch", workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark binary failed with code %d" % proc.returncode)
    record = json.loads(lines[-1])
    record["stamp"]["rev"] = source_rev()
    return record, proc.returncode


def report(record, bench):
    for name in END_TO_END:
        m = record["metrics"].get(name)
        if m is not None:
            print("%-20s %14.6g %s" % (name, m["value"], m["unit"]))
    if record["trace"]:
        for name, m in sorted(record["metrics"].items()):
            if name not in END_TO_END:
                print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, s in sorted(record["samples"].items()):
        print("samples %-8s n=%d beyond=%d pct=%.3f"
              % (name, s["n"], s["beyond"], s["pct"]))
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in bench.get("end_to_end", [])}
    baselines = load_json(os.path.join(BENCH_DIR, "baselines.json"), {})
    for line in compare(record, baselines, bounds):
        print(line)
    print("record " + json.dumps(record, sort_keys=True))


def result_line(record, bench):
    key = "per_layer" if record["trace"] else "end_to_end"
    names = [m["name"] for m in bench.get(key, [])]
    metrics = {n: record["metrics"][n] for n in names if n in record["metrics"]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def selftest():
    build()
    code = subprocess.run([BINARY, "--selftest"]).returncode
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    expect(abs(spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) - 5.5 / 5.5) < 1e-9,
           "spread is the quartile distance over the median")
    stamp = {"cpus": 4, "simd": "avx2", "compiler": "GNU-12", "build_type":
             "Release"}
    rec = {"workload": "w", "stamp": stamp,
           "metrics": {"max_eps": {"value": 80.0, "unit": "events/s"}}}
    base = {machine_class(stamp): {"w": {"rev": "r", "metrics": {
        "max_eps": {"median": 100.0}}}}}
    lines = compare(rec, base, {"max_eps": ("higher", 0.1)})
    expect(any("WORSE" in l for l in lines), "a 20% drop exceeds a 10% bound")
    other = dict(stamp, cpus=1)
    lines = compare(dict(rec, stamp=other), base, {"max_eps": ("higher", 0.1)})
    expect(lines == ["baseline: no baseline for this class (%s)"
                     % machine_class(other)],
           "another machine class is not compared")
    return 0 if ok and code == 0 else 1


def smoke(bench):
    ok = True
    for workload in workload_names(bench):
        for trace in (0, 1):
            record, code = run_one(workload, 1, 0.5, trace, smoke=True)
            good = code == 0 and record["correct"]
            print("%-16s trace=%d %s  %s" % (workload, trace,
                                             "ok" if good else "FAIL",
                                             result_line(record, bench)))
            ok = ok and good
    return 0 if ok else 1


def record_baseline(bench, runs, seconds):
    """Runs every workload with seeds 1..runs, prints each gated metric's
    median and spread, and stores them in baselines.json under this
    machine class."""
    path = os.path.join(BENCH_DIR, "baselines.json")
    baselines = load_json(path, {})
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workload_names(bench):
        values = {}
        for seed in range(1, runs + 1):
            record, code = run_one(workload, seed, seconds, 0)
            if code != 0 or not record["correct"]:
                fail("%s seed %d failed its correctness check" % (workload, seed))
            for name in bounds:
                if name in record["metrics"]:
                    values.setdefault(name, []).append(
                        record["metrics"][name]["value"])
        entry = {"rev": record["stamp"]["rev"], "runs": runs, "metrics": {}}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                      "values": v}
            within = spread(v) <= bounds[name]
            ok = ok and within
            print("%-16s %-16s median %-12.6g spread %5.3f (bound %.2f)%s"
                  % (workload, name, med, spread(v), bounds[name],
                     "" if within else "  WIDER THAN BOUND"))
        baselines.setdefault(machine_class(record["stamp"]), {})[workload] = entry
    with open(path, "w") as f:
        json.dump(baselines, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--baseline", type=int, metavar="RUNS")
    a = p.parse_args()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"), {})
    if a.selftest:
        return selftest()
    build()
    if a.smoke:
        return smoke(bench)
    if a.baseline:
        return record_baseline(bench, a.baseline, a.seconds)
    if not a.workload:
        fail("--workload is required")
    record, code = run_one(a.workload, a.seed, a.seconds, a.trace)
    report(record, bench)
    print(result_line(record, bench))
    return code


if __name__ == "__main__":
    sys.exit(main())
