#!/usr/bin/env python3
"""Records how steady the benchmark is on this host.

Runs every workload of BENCHMARK.json ten times in each of two sets,
one workload after another, alternating the sets run by run (A then B for
each seed) instead of running them back to back. For every end-to-end
metric it reports each set's median, quartiles and spread (interquartile
range over the median, quartiles as Python's statistics.quantiles(values,
n=4) gives them) and how far set B's median moved from set A's, and keeps
each run's unscaled host times from the benchmark's stderr. It also makes one traced run
per workload and records whether it was correct. The host context (CPU
model, nproc, GOMAXPROCS, load average, steal time) goes in the record.

Run from the repository root:

    python3 perfbench/steadiness.py --out perfbench/steadiness.json

Exits 1 when a spread reaches a third of the metric's bound, set B's median
is worse than set A's by more than the bound, or a run fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUNS = 10  # runs per set and workload


def host_cpu():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def cpu_jiffies():
    """Returns (steal, total) jiffies from the aggregate cpu line."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields)


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    # The benchmark's stderr line with the unscaled fastest and median
    # repetition and the probe's fastest and median sample.
    out["unscaled"] = [l for l in proc.stderr.splitlines() if "fastest repetition" in l]
    return out


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default="", help="write the record here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    steal0, total0 = cpu_jiffies()
    host = {
        "cpu": host_cpu(),
        "nproc": os.cpu_count(),
        "gomaxprocs": int(os.environ.get("GOMAXPROCS", os.cpu_count())),
        "loadavg_start": loadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    sets = {w: {"A": [], "B": []} for w in workloads}
    failures = []
    for w in workloads:
        for i in range(RUNS):
            for name in ("A", "B"):
                out = run_once(spec, w, i, 0)
                sets[w][name].append(out)
                if not out["correct"] or out["failed"]:
                    failures.append(f"{w} set {name} seed {i}: {out['failed']} of {out['attempted']} failed")
                print(f"{w} {name} seed {i}: " + " ".join(
                    f"{m['name']}={out['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)

    traced = {}
    for w in workloads:
        out = run_once(spec, w, 0, 1)
        if not out["correct"] or out["failed"]:
            failures.append(f"{w} traced: {out['failed']} of {out['attempted']} failed")
        traced[w] = {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"],
                     "wall_s": round(out["wall_s"], 1),
                     "metrics": {k: v["value"] for k, v in sorted(out["metrics"].items())}}

    steal1, total1 = cpu_jiffies()
    host["loadavg_end"] = loadavg()
    host["steal_pct"] = 100 * (steal1 - steal0) / max(total1 - total0, 1)

    record = {"host": host, "runs_per_set": RUNS, "run_seconds": spec["run_seconds"],
              "workloads": {}, "traced": traced, "failures": failures}
    problems = list(failures)
    for w in workloads:
        walls = [o["wall_s"] for s in sets[w].values() for o in s]
        rw = {"run_wall_s": statistics.median(walls), "run_wall_s_max": max(walls),
              "unscaled": {k: [u for o in sets[w][k] for u in o["unscaled"]] for k in ("A", "B")}}
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            a = summarize([o["metrics"][name]["value"] for o in sets[w]["A"]])
            b = summarize([o["metrics"][name]["value"] for o in sets[w]["B"]])
            moved = (b["median"] - a["median"]) / a["median"]
            worse = -moved if better == "higher" else moved
            rw[name] = {"unit": m["unit"], "bound": bound, "A": a, "B": b, "median_shift": moved}
            for label, s in (("A", a), ("B", b)):
                if s["spread"] >= bound / 3:
                    problems.append(f"{w} {name} set {label}: spread {s['spread']:.3f} >= bound/3 {bound / 3:.3f}")
            if worse > bound:
                problems.append(f"{w} {name}: set B median worse by {worse:.3f} > bound {bound}")
            print(f"{w:8s} {name:12s} A med {a['median']:.5g} spread {a['spread']:.3f} | "
                  f"B med {b['median']:.5g} spread {b['spread']:.3f} | shift {moved:+.3f} (bound {bound})")
        record["workloads"][w] = rw
    record["problems"] = problems
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
