#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs every workload N times with a
different seed each time, reports each end-to-end metric's median and
quartiles, and its spread (Q3 - Q1) / median against the metric's bound in
BENCHMARK.json. With --sets 2 it repeats the whole set and checks that the
second set's median is not worse than the first's by more than the bound.

Usage, from the repository root (about runs x sets x (run_seconds + 10) s
per workload):

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/STEADINESS.md

Raw results go next to --out as a .json file, under "sets". Its
"other_runs" list (runs made outside this script, kept as evidence) is
carried over when the file is rewritten.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_BASE = 1000  # Run i of set s uses seed SEED_BASE + 100 * s + i.


def run_once(workload, seed, seconds):
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    noise = [l.strip() for l in proc.stdout.splitlines()
             if "host.steal_share" in l or "harness.cpu_us_per_record" in l]
    wrong = [l.strip() for l in proc.stderr.splitlines()
             if "wrong score" in l or "NOT rounding" in l]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode} "
                         "without a result")
    return {"seed": seed, "started": started, "correct": result["correct"],
            "exit": proc.returncode,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "host_noise": noise, "wrong_scores": wrong}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def render(spec, raw, runs_per_set):
    """The report on `raw` ({workload: [runs of set 1, ...]}) as lines, and
    whether every spread is within its bound, the sets agree, and every run
    was correct."""
    sets = len(next(iter(raw.values())))
    model = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo")
                  if l.startswith("model name")), platform.machine())
    out = [f"# Steadiness runs\n",
           f"Host: {os.cpu_count()} CPUs ({model}), {platform.system()} "
           f"{platform.release()}; host.steal_share per run is listed below.\n",
           f"{runs_per_set} runs per workload per set, {sets} set(s), "
           f"run_seconds {spec['run_seconds']}, one seed per run (seeds from "
           f"{SEED_BASE}). Spread = (Q3 - Q1) / median with "
           f"`statistics.quantiles(values, n=4)`; target: below a third of "
           f"the bound.\n"]
    spreads_ok = agree_ok = correct_ok = True
    for w in raw:
        out.append(f"\n## {w}\n")
        out.append("| metric | set | median | Q1 | Q3 | spread | bound | "
                   "spread < bound/3 |")
        out.append("|---|---|---|---|---|---|---|---|")
        medians = {}
        for m in spec["end_to_end"]:
            for s, runs in enumerate(raw[w]):
                values = [r["metrics"][m["name"]] for r in runs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else 0.0
                steady = spread < m["bound"] / 3
                spreads_ok &= spread <= m["bound"]
                medians.setdefault(m["name"], []).append(q2)
                out.append(f"| {m['name']} | {s + 1} | {q2:.6g} | {q1:.6g} | "
                           f"{q3:.6g} | {spread:.4f} | {m['bound']} | "
                           f"{'yes' if steady else 'NO'} |")
        if sets == 2:
            out.append("\nTwo-set agreement (second median within the bound "
                       "of the first, either way):\n")
            for m in spec["end_to_end"]:
                first, second = medians[m["name"]]
                delta = worse_by(m, first, second)
                agree = abs(delta) <= m["bound"]
                agree_ok &= agree
                out.append(f"- {m['name']}: {first:.6g} -> {second:.6g}, "
                           f"worse by {delta:+.4f} (bound {m['bound']}): "
                           f"{'agree' if agree else 'DISAGREE'}")
        runs = [r for per_set in raw[w] for r in per_set]
        bad = [r for r in runs if not r["correct"]]
        correct_ok &= not bad
        out.append(f"\nCorrectness: {len(runs) - len(bad)} of {len(runs)} runs "
                   "correct.")
        for r in bad:
            out.append(f"- seed {r['seed']} correct=false, exit {r['exit']}: "
                       + "; ".join(sorted(set(r["wrong_scores"]))))
        out.append("\nHost noise per run (set 1; steal: first process):\n")
        for r in raw[w][0]:
            steal = [l for l in r["host_noise"] if "host.steal_share" in l]
            noise = " ".join(r["host_noise"])
            raw_p50 = re.findall(r"harness.latency_p50_us (\S+)", noise)
            cpu = re.findall(r"harness.cpu_us_per_record (\S+)", noise)
            out.append(f"- seed {r['seed']} ({r['started']}): "
                       f"{steal[0] if steal else ''}; per process, ungated: "
                       f"raw p50 {', '.join(raw_p50)} us, "
                       f"cpu_us_per_record {', '.join(cpu)}")
    yes_no = lambda flag: "yes" if flag else "NO"
    out.append("\nVerdict:\n")
    out.append(f"- every spread within its bound: "
               f"{yes_no(spreads_ok)}")
    if sets == 2:
        out.append(f"- the two sets agree on every metric: {yes_no(agree_ok)}")
    out.append(f"- every run correct: {yes_no(correct_ok)}\n")
    return out, spreads_ok and agree_ok and correct_ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--out", default=os.path.join("perfbench", "STEADINESS.md"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    raw = {}
    for s in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = SEED_BASE + 100 * s + i
                r = run_once(w, seed, seconds)
                raw.setdefault(w, [[] for _ in range(args.sets)])[s].append(r)
                print(f"set {s + 1} {w} seed {seed}: " +
                      " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items()),
                      flush=True)

    out, ok = render(spec, raw, args.runs)
    with open(args.out, "w") as f:
        f.write("\n".join(out))
    raw_path = os.path.splitext(args.out)[0] + ".json"
    other_runs = []
    if os.path.exists(raw_path):
        with open(raw_path) as f:
            other_runs = json.load(f).get("other_runs", [])
    with open(raw_path, "w") as f:
        json.dump({"sets": raw, "other_runs": other_runs}, f, indent=1)
    print("\n".join(out))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
