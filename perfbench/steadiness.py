#!/usr/bin/env python3
"""Steadiness check for perfbench: repeated runs, spreads, and drift.

    python3 perfbench/steadiness.py [--workloads a,b] [--out perfbench/results/steadiness.json]

For every workload it makes two sets of runs over seeds 1..10, taken
interleaved: for each seed, one run of each set in turn (the set that goes
first alternates), so drift of the machine hits both sets alike. Each run is
the BENCHMARK.json command with --trace 0 and its run_seconds.

For every end-to-end metric it reports, per set, the median and the spread:
the distance between the first and third quartile of the ten values
(statistics.quantiles, n=4) as a share of the median. It checks that

  * every run is correct with no failed unit;
  * each spread is within the metric's bound, and flags those above a third
    of it;
  * the two sets' medians differ by no more than the bound, either way;
  * each seed's output digest (of its verification pass) and simulated
    metrics (qoe_mean, energy_j_per_session, stall_s_per_session) repeat bit
    for bit across the sets, and the digests differ between seeds.

Exits 1 when a check fails. --out writes the whole record as JSON, with each
seed's output digest, so a later commit can be compared against it exactly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETS = 2
SEEDS = list(range(1, 11))
SIMULATED = ("qoe_mean", "energy_j_per_session", "stall_s_per_session")
DIGEST_NOTE = "# output digest: "


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    child = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.time() - start
    if child.returncode != 0:
        return {"error": f"exit code {child.returncode}", "wall_s": wall}
    lines = child.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["digest"] = next((line[len(DIGEST_NOTE):] for line in lines
                             if line.startswith(DIGEST_NOTE)), None)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {"seconds": spec["run_seconds"], "seeds": SEEDS, "sets": SETS,
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [[None] * len(SEEDS) for _ in range(SETS)]
        for i, seed in enumerate(SEEDS):
            for s in (range(SETS) if i % 2 == 0 else reversed(range(SETS))):
                r = run_once(spec["command"], workload, seed, spec["run_seconds"])
                runs[s][i] = r
                print(f"{workload} seed {seed} set {s}: "
                      + (r.get("error") or f"{r['attempted']} units, "
                         f"{r['wall_s']:.1f} s wall"), file=sys.stderr)

        problems = []
        for s in range(SETS):
            for i, r in enumerate(runs[s]):
                if "error" in r or not r["correct"] or r["failed"] != 0:
                    problems.append(f"set {s} seed {SEEDS[i]}: run not correct")
        summary = {}
        digests = {}
        if not problems:
            for i, seed in enumerate(SEEDS):
                seen = {runs[s][i]["digest"] for s in range(SETS)}
                digests[seed] = sorted(seen, key=str)
                if len(seen) != 1 or None in seen:
                    problems.append(f"seed {seed}: output digest differs across sets")
            if len({d[0] for d in digests.values()}) != len(SEEDS):
                problems.append("two seeds share an output digest")
            for name, m in metrics.items():
                sets = [[r["metrics"][name]["value"] for r in runs[s]]
                        for s in range(SETS)]
                stats = [spread(v) for v in sets]
                first, second = stats[0]["median"], stats[1]["median"]
                drift = abs(second - first) / abs(first) if first else float("inf")
                summary[name] = {"bound": m["bound"], "sets": stats, "drift": drift,
                                 "values": sets}
                for s, st in enumerate(stats):
                    if st["spread"] > m["bound"]:
                        problems.append(f"{name}: set {s} spread "
                                        f"{st['spread']:.3f} > bound {m['bound']}")
                if drift > m["bound"]:
                    problems.append(f"{name}: set medians differ by {drift:.3f} "
                                    f"> bound {m['bound']}")
                if name in SIMULATED:
                    for i, seed in enumerate(SEEDS):
                        if len({sets[s][i] for s in range(SETS)}) != 1:
                            problems.append(f"{name}: seed {seed} differs across sets")
        record["workloads"][workload] = {"metrics": summary, "digests": digests,
                                         "problems": problems}
        ok = ok and not problems

        print(f"\n{workload}")
        print(f"  {'metric':24s} {'bound':>6s} " +
              " ".join(f"{'median' + str(s):>14s} {'spread' + str(s):>8s}"
                       for s in range(SETS)) + f" {'drift':>7s}")
        for name, entry in summary.items():
            flag = ""
            if any(st["spread"] > entry["bound"] / 3 for st in entry["sets"]):
                flag = "  spread above bound/3"
            print(f"  {name:24s} {entry['bound']:6.3f} " +
                  " ".join(f"{st['median']:14.6g} {st['spread']:8.4f}"
                           for st in entry["sets"]) +
                  f" {entry['drift']:7.4f}{flag}")
        for p in problems:
            print(f"  PROBLEM {p}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
