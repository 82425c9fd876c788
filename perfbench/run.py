#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. It builds perfbench/ (and the library tree it
links, ../src) into .bench_build/perfbench, runs the driver binary, prints
its log and a table of every metric with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones from a
separate traced pass.

Other modes:
    --all             run every workload once (trace 0 and 1) and print all
    --self-test       tiny-size checks of the benchmark itself
    --spread N        N untraced runs per workload on seeds 1..N; prints each
                      end-to-end metric's median and quartile spread

The workloads and metrics, with their units and bounds, are read from
BENCHMARK.json at the repository root.

Counts (metrics marked count by the driver) must repeat exactly across runs
of one seed on one binary; a run whose counts differ from an earlier run's
fails. Every result is stored, with the machine record, under
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RESULT_TAG = "PERFBENCH_RESULT "


class BenchError(Exception):
    pass


def load_spec():
    """BENCHMARK.json: the workloads, and every metric with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


SPEC = load_spec()


def build():
    """Configures once, then builds incrementally. Build output is shown
    (on stderr) only when a step fails, so the result line stays last on
    stdout."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found: run from the "
                         "repository root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs,
               "--target", "perfbench"])


def run_quiet(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("command failed: " + " ".join(cmd))


def fixed_layout():
    """Runs the driver without address-space randomisation: a per-process
    random layout moved paper-sweep's throughput by several percent from
    run to run. Where the personality call is refused, the layout stays
    random (the machine record says which)."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        addr_no_randomize = 0x0040000
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def run_driver(workload, seed, seconds, trace, tiny=False, corrupt=None,
               echo=True):
    work_dir = os.path.join(BUILD_ROOT, "work", workload)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    if tiny:
        cmd.append("--tiny")
    if corrupt:
        cmd += ["--corrupt", corrupt]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, preexec_fn=fixed_layout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            if not line.startswith(RESULT_TAG):
                print(line)
    results = [l for l in lines if l.startswith(RESULT_TAG)]
    if proc.returncode != 0 or not results:
        raise BenchError("driver failed (exit %d) on %s" % (proc.returncode, workload))
    return json.loads(results[-1][len(RESULT_TAG):])


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def count_gate(raw, workload, seed, trace, tiny):
    """Counts must repeat exactly across runs of one seed on one binary.
    Returns the names that differ from the stored first run."""
    counts = {k: v["value"] for k, v in raw["metrics"].items() if v.get("count")}
    if not counts:
        return []
    gate_dir = os.path.join(BUILD_ROOT, "counts")
    os.makedirs(gate_dir, exist_ok=True)
    key = "%s-seed%s-trace%d%s-%s.json" % (workload, seed, trace,
                                          "-tiny" if tiny else "", binary_digest())
    path = os.path.join(gate_dir, key)
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)
        return []
    with open(path) as f:
        first = json.load(f)
    return sorted(n for n in set(first) | set(counts) if first.get(n) != counts.get(n))


def result_line(raw, trace):
    """Filters the driver's metrics to BENCHMARK.json's list for this mode."""
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics, filled = {}, []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        got = raw["metrics"].get(name)
        if got is None:
            if not trace:
                raise BenchError("end-to-end metric %s was not measured" % name)
            filled.append(name)
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            raise BenchError("metric %s has unit %s, BENCHMARK.json says %s"
                             % (name, got["unit"], unit))
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics, filled


def print_table(raw, filled):
    print("metrics (name, value, unit):")
    for name, m in raw["metrics"].items():
        print("  %-34s %16.6g %s%s" % (name, m["value"], m["unit"],
                                        "  [count]" if m.get("count") else ""))
    if filled:
        print("  not exercised by this workload (reported as 0): "
              + ", ".join(filled))


def store(raw, out, workload, seed, trace):
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s-seed%s-trace%d-%d.json" % (workload, seed, trace, time.time_ns())
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "machine": raw.get("machine"), "result": out,
                   "all_metrics": raw["metrics"]}, f, indent=1)


def measure(workload, seed, seconds, trace, tiny=False, corrupt=None, echo=True):
    """One benchmark run; returns the result object of its last output line."""
    raw = run_driver(workload, seed, seconds, trace, tiny, corrupt, echo)
    metrics, filled = result_line(raw, trace)
    correct, failed = raw["correct"], raw["failed"]
    mismatched = count_gate(raw, workload, seed, int(trace), tiny)
    if mismatched:
        print("COUNT GATE: counts differ from an earlier run of this seed: "
              + ", ".join(mismatched))
        correct = False
    if echo:
        print_table(raw, filled)
    out = {"correct": bool(correct), "attempted": int(raw["attempted"]),
           "failed": int(failed), "metrics": metrics}
    store(raw, out, workload, seed, int(trace))
    return out


def spread(workloads, runs, seconds):
    """Quartile spread of every end-to-end metric over `runs` seeds, as
    the acceptance check computes it: (Q3 - Q1) / median."""
    import statistics
    report = {}
    for w in workloads:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        failed = 0
        for seed in range(1, runs + 1):
            out = measure(w, seed, seconds, 0, echo=False)
            failed += out["failed"] + (0 if out["correct"] else 1)
            for name in values:
                values[name].append(out["metrics"][name]["value"])
        report[w] = {}
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            report[w][name] = {"median": med, "spread": (q3 - q1) / med,
                               "bound": bound, "values": v}
            print("%-15s %-15s median %12.6g  spread %6.3f  (bound %.2f)%s"
                  % (w, name, med, (q3 - q1) / med, bound,
                     "" if (q3 - q1) / med <= bound / 3 else "  > bound/3"))
        print("%-15s failed or incorrect runs: %d" % (w, failed))
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "spread-%d.json" % time.time_ns()), "w") as f:
        json.dump(report, f, indent=1)


def self_test():
    """Tiny-size checks: every named metric is emitted with its unit, a
    corrupted output counts as a failed operation, and the count gate
    catches a changed count."""
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    names = [w["name"] for w in SPEC["workloads"]]
    measured = set()
    for w in names:
        raw = run_driver(w, 1, 0.5, False, tiny=True, echo=False)
        for m in SPEC["end_to_end"]:
            name, unit = m["name"], m["unit"]
            got = raw["metrics"].get(name)
            expect(got is not None and got["unit"] == unit and got["value"] > 0,
                   "%s emits %s [%s] > 0" % (w, name, unit))
        expect(raw["correct"] and raw["failed"] == 0 and raw["attempted"] > 0,
               "%s tiny run is correct" % w)
        raw = run_driver(w, 1, 0.5, True, tiny=True, echo=False)
        expect(raw["correct"], "%s tiny traced run is correct" % w)
        for m in SPEC["per_layer"]:
            name, unit = m["name"], m["unit"]
            got = raw["metrics"].get(name)
            if got is not None:
                expect(got["unit"] == unit, "%s emits %s in [%s]" % (w, name, unit))
                measured.add(name)
    for name in (m["name"] for m in SPEC["per_layer"]):
        expect(name in measured, "per-layer %s is measured by some workload" % name)

    for w, kind in [("paper-sweep", "schedule"), ("daemon-mix", "wal"),
                    ("archive-replay", "trace")]:
        for trace in (False, True):
            raw = run_driver(w, 1, 0.5, trace, tiny=True, corrupt=kind, echo=False)
            expect(not raw["correct"] and raw["failed"] >= 1,
                   "%s trace=%d: corrupted %s counts as failed (%d failed)"
                   % (w, trace, kind, raw["failed"]))

    # Count gate: a repeat of one seed passes, a tampered stored count fails.
    gate_dir = os.path.join(BUILD_ROOT, "counts")
    for f in os.listdir(gate_dir) if os.path.isdir(gate_dir) else []:
        if "-tiny-" in f:
            os.remove(os.path.join(gate_dir, f))
    first = measure("archive-replay", 7, 0.5, True, tiny=True, echo=False)
    again = measure("archive-replay", 7, 0.5, True, tiny=True, echo=False)
    expect(first["correct"] and again["correct"], "count gate passes on a repeat")
    for f in os.listdir(gate_dir):
        if f.startswith("archive-replay-seed7-trace1-tiny"):
            path = os.path.join(gate_dir, f)
            with open(path) as fh:
                counts = json.load(fh)
            counts["pdes.events"] += 1
            with open(path, "w") as fh:
                json.dump(counts, fh)
    tampered = measure("archive-replay", 7, 0.5, True, tiny=True, echo=False)
    expect(not tampered["correct"], "count gate fails on a changed count")

    print("self-test: %d problem(s)" % len(problems))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w["name"] for w in SPEC["workloads"]]
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--spread", type=int, metavar="N")
    args = ap.parse_args()
    os.chdir(ROOT)

    try:
        build()
        if args.self_test:
            return self_test()
        if args.spread:
            spread([args.workload] if args.workload else names, args.spread,
                   args.seconds)
            return 0
        if args.all:
            for w in names:
                for trace in (0, 1):
                    print(json.dumps(measure(w, args.seed, args.seconds, trace)))
            return 0
        if not args.workload:
            ap.error("--workload is required")
        out = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
