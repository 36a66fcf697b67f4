#!/usr/bin/env python3
"""The one command of the repository benchmark (see README.md beside this).

It builds tcsim_bench incrementally into build-bench/, runs workloads, each
in its own process, checks their outputs and prints every metric by name
with its unit and sample count.

Single run (the interface BENCHMARK.json promises):
  python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1
The last line of standard output is one JSON object: the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1) named in BENCHMARK.json.

Suite (every workload, untraced):
  python3 bench/e2e/run.py [--seed N] [--seconds T] [--runs N --sets 2] [--trace]
--runs/--sets repeats every workload and prints, per metric and set, the
median, quartiles and run count, whether the set medians agree within the
metric's bound, and whether the simulated counts repeated exactly.  --trace
then reruns each workload once with spans recorded (Chrome trace-event JSON
in build-bench/trace_<workload>.json) and prints each span's self time and
the tracing overhead.

Exit status is non-zero on any failed check, failed run or disagreement.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench"
BINARY = BUILD / "tcsim_bench"
RUN_TIMEOUT_S = 170

# Metrics in these units are host measurements; every other metric is
# simulated (or derived from simulated counts) and must repeat exactly.
HOST_UNITS = {"s", "ns", "us", "MB", "kinst/s", "1/s", "cpu_s/s"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then build incrementally; build output goes to
    stderr so standard output stays parseable."""
    if not (ROOT / "CMakeLists.txt").is_file():
        fail(f"{ROOT} holds no tcsim sources to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", str(BUILD), "--target", "tcsim_bench", "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *gen])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def run_workload(name, seed, seconds, trace):
    """Run one workload in its own process; returns the parsed output."""
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace_{name}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    out = {"metrics": {}, "checks": [], "attempted": None, "failed": None,
           "returncode": proc.returncode}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) == 5:
            out["metrics"][parts[1]] = (float(parts[2]), parts[3], int(parts[4]))
        elif parts[:1] == ["check"] and len(parts) >= 3:
            out["checks"].append((parts[1] == "ok", " ".join(parts[2:])))
        elif parts[:1] == ["result"] and len(parts) == 3:
            out["attempted"], out["failed"] = int(parts[1]), int(parts[2])
    if out["attempted"] is None:
        fail(f"{name} exited with status {proc.returncode} and no result")
    return out


def correct(out):
    return (out["returncode"] == 0 and out["failed"] == 0
            and all(ok for ok, _ in out["checks"]))


def select(spec_metrics, out, name):
    """The metrics BENCHMARK.json lists, as measured; each must be present
    with the unit the spec states."""
    chosen = {}
    for m in spec_metrics:
        got = out["metrics"].get(m["name"])
        if got is None:
            fail(f"{name} did not report {m['name']}")
        if got[1] != m["unit"]:
            fail(f"{name} reported {m['name']} in {got[1]}, spec says {m['unit']}")
        chosen[m["name"]] = got
    return chosen


def print_checks(name, out):
    for ok, what in out["checks"]:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    frac = out["failed"] / out["attempted"] if out["attempted"] else 0.0
    print(f"  {name}: attempted {out['attempted']}, failed {out['failed']}, "
          f"fail_frac {frac:g}")


def single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
    build()
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    chosen = select(spec["per_layer" if args.trace else "end_to_end"], out,
                    args.workload)
    print_checks(args.workload, out)
    for metric, (value, unit, n) in chosen.items():
        print(f"  {metric:32} {value:>16.6g} {unit:10} n={n}")
    ok = correct(out)
    print(json.dumps({
        "correct": ok,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in chosen.items()},
    }))
    return 0 if ok else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def suite(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    wanted = spec["end_to_end"] + spec["per_layer"]
    build()
    status = 0
    # results[workload][set] -> list of outputs, one per run
    results = {w: [[] for _ in range(args.sets)] for w in names}
    for s in range(args.sets):
        for r in range(args.runs):
            for w in names:
                print(f"[set {s + 1}/{args.sets} run {r + 1}/{args.runs}] {w} ...",
                      file=sys.stderr, flush=True)
                out = run_workload(w, args.seed, args.seconds, False)
                select(spec["end_to_end"], out, w)
                if not correct(out):
                    status = 1
                results[w][s].append(out)

    for w in names:
        runs = [o for per_set in results[w] for o in per_set]
        print(f"\n== {w}  (seed {args.seed}, {args.seconds} s, "
              f"{args.runs} run(s) x {args.sets} set(s)) ==")
        print_checks(w, runs[-1])
        header = f"  {'metric':32} {'unit':10}"
        for s in range(args.sets):
            header += f" {'set ' + str(s + 1) + ' median [q1, q3]':>36}"
        print(header + "  n/run  agree")
        for m in wanted:
            if m["name"].startswith("self_s."):
                continue
            name, unit = m["name"], m["unit"]
            line = f"  {name:32} {unit:10}"
            medians = []
            for per_set in results[w]:
                vals = [o["metrics"][name][0] for o in per_set if name in o["metrics"]]
                q1, med, q3 = quartiles(vals) if vals else (0.0, 0.0, 0.0)
                medians.append(med)
                line += f" {med:>14.6g} [{q1:.4g}, {q3:.4g}]".rjust(37)
            samples = runs[-1]["metrics"].get(name, (0, "", 0))[2]
            agree = ""
            if name in bounds and args.sets > 1:
                spread = max(abs(x - medians[0]) for x in medians)
                ok = medians[0] != 0 and spread <= bounds[name] * abs(medians[0])
                agree = "yes" if ok else f"NO (bound {bounds[name]:g})"
                status |= 0 if ok else 1
            if unit not in HOST_UNITS:
                distinct = {o["metrics"][name][0] for o in runs if name in o["metrics"]}
                if len(distinct) > 1:
                    agree = "NOT EXACT"
                    status = 1
            print(f"{line}  {samples:5d}  {agree}")

    # The parallel core must reproduce every serial simulated count.
    if "gemm_tc" in results and "gemm_tc_par" in results:
        a, b = results["gemm_tc"][0][0], results["gemm_tc_par"][0][0]
        diff = [m["name"] for m in spec["per_layer"]
                if m["unit"] not in HOST_UNITS and m["name"] != "sim.threads"
                and a["metrics"].get(m["name"]) != b["metrics"].get(m["name"])]
        print(f"\ngemm_tc_par simulated counts equal gemm_tc: "
              f"{'yes' if not diff else 'NO: ' + ', '.join(diff)}")
        status |= 1 if diff else 0

    if args.trace:
        print("\n== traced rerun (one run per workload) ==")
        for w in names:
            out = run_workload(w, args.seed, args.seconds, True)
            if not correct(out):
                status = 1
            untraced = statistics.median(
                o["metrics"]["sim_kips"][0] for per_set in results[w] for o in per_set)
            traced = out["metrics"]["sim_kips"][0]
            overhead = 100.0 * (untraced / traced - 1.0) if traced else 0.0
            print(f"  {w}: trace.overhead_pct {overhead:+.2f} %  "
                  f"(trace: {BUILD / ('trace_' + w + '.json')})")
            for name, (value, unit, _) in out["metrics"].items():
                if name.startswith("self_s.") and value > 0:
                    print(f"    {name:32} {value:>12.6g} {unit}")
    return status


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1], help="record spans (per-layer metrics)")
    p.add_argument("--runs", type=int, default=1, help="runs per set (suite)")
    p.add_argument("--sets", type=int, default=1, help="sets of runs (suite)")
    args = p.parse_args()
    if args.runs < 1 or args.sets < 1 or args.seconds <= 0:
        fail("--runs, --sets and --seconds must be positive")
    return single(args, spec) if args.workload else suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
