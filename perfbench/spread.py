#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads mshr_bound --seeds 1-5 --trace-seeds 1
    python3 perfbench/spread.py --seeds 1-10 --trace-seeds 1 --baseline perfbench/BASELINE.json

Run from the repository root. For every workload and seed it runs
perfbench/run.py for BENCHMARK.json's run_seconds, then prints each
end-to-end metric's median, quartiles and spread (interquartile range
over median, the statistic the bounds in BENCHMARK.json are judged by),
flagging spreads above a third of the bound. --trace-seeds adds traced
runs; --baseline writes every median, the per-layer numbers and the
host description to a JSON file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def seeds_arg(s):
    out = []
    for part in s.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        elif part:
            out.append(int(part))
    return out


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    # The harness reports the share of CPU time the hypervisor gave to
    # other guests during the measured run: runs slowed by a busy host
    # show it.
    steal = next((float(l.split()[2]) for l in lines if l.startswith("host steal:")), None)
    return json.loads(lines[-1]), wall, steal


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace-seeds", type=seeds_arg, default=[])
    ap.add_argument("--baseline", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    baseline = {"host": host(), "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for w in workloads:
        values, walls, runs = {}, [], []
        for seed in args.seeds:
            res, wall, steal = run(w, seed, seconds, 0)
            walls.append(wall)
            runs.append({"seed": seed, "wall_s": round(wall, 2), "host_steal_share": steal,
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %.1f s, host steal %s" % (w, seed, wall, steal), file=sys.stderr)
        summary = {}
        print("\n%s (%d seeds, %.0f-%.0f s per run)" % (w, len(args.seeds), min(walls), max(walls)))
        for name in sorted(values):
            xs = values[name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound %.2f" % bounds[name]
                worst = max(worst, spread / bounds[name])
            print("  %-16s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.3f%s" % (name, med, q1, q3, spread, flag))
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        entry = {"end_to_end": summary, "runs": runs}
        for seed in args.trace_seeds:
            res, wall, _ = run(w, seed, seconds, 1)
            entry.setdefault("traced", []).append(
                {"seed": seed, "wall_s": round(wall, 2), "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print("%s traced seed %d: %.1f s" % (w, seed, wall), file=sys.stderr)
        baseline["workloads"][w] = entry

    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    if worst:
        print("\nsome spreads exceed a third of their bound")


if __name__ == "__main__":
    main()
