"""Run the benchmark in alternating parent/change pairs and write BENCH_<pr>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --pr N [--pairs 10]
        [--seconds 20] [--seed S0] [--claim W:METRIC]
        [--hashes BENCH_30.json] [--trace-seconds 3] [--out FILE]

PARENT and CHANGE are two checkouts of the repository (for example a
``git archive`` of the parent commit unpacked in a directory, and the
change).  For each workload, pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, the parent first in even pairs and the change first
in odd ones, on a fresh seed S = seed + 100 * (workload index + 1) + i.
Each run's result is its last line of stdout, and its record (machine
facts, cold-start samples) the line before.  The workloads, and the
metrics with their direction and bounds, come from CHANGE/BENCHMARK.json.

The output holds, per workload and end-to-end metric, each side's median
and quartiles (``statistics.quantiles``, inclusive) and runs, the pairs
the change won, whether its median is within the bound and whether it is a
gain (won at least nine tenths of the pairs, and the medians differ by
more than the parent's quartile distance); every run's ``correct``,
``failed`` and ``setup_s`` samples; and the machine facts.  ``--hashes``
adds the output hashes of both sides (CHANGE/tools/output_hashes.py on the
given BENCH file), and ``--trace-seconds`` one ``--trace 1`` run per
workload and side, with its per-layer metrics.  The file is --out, or
BENCH_<pr>.json in the working directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_bench(checkout, workload, seed, seconds, trace=0):
    """(result, record) of one perfbench run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {checkout} failed:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent, change, better, bound):
    """The change against the parent on one metric, pair by pair."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = summary(parent), summary(change)
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    quartile_distance = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    return {
        "median_move": c["median"] / p["median"] - 1.0 if p["median"] else None,
        "bound": bound,
        "change_better_in_pairs": wins,
        "parent_quartile_distance": quartile_distance,
        "within_bound": sign * (c["median"] - p["median"]) <= bound * abs(p["median"]),
        "gain": wins >= 0.9 * len(parent) and gain > quartile_distance,
    }


def bench_pairs(checkouts, workloads, pairs, seconds, seed, metrics):
    """Per workload: seeds, first sides, each side's summaries and runs,
    and the comparison; and the machine facts of the first run."""
    out, machine = {}, None
    for w, workload in enumerate(workloads):
        seeds = [seed + 100 * (w + 1) + i for i in range(pairs)]
        firsts = [SIDES[i % 2] for i in range(pairs)]
        runs = {side: [] for side in SIDES}
        for s, first in zip(seeds, firsts):
            for side in (first, SIDES[1 - SIDES.index(first)]):
                result, record = run_bench(checkouts[side], workload, s, seconds)
                machine = machine or record["machine"]
                runs[side].append({
                    "seed": s, "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"], "setup_s_samples": record["setup_s_samples"],
                    "metrics": {m: result["metrics"][m]["value"] for m in metrics},
                })
        values = {side: {m: [r["metrics"][m] for r in runs[side]] for m in metrics}
                  for side in SIDES}
        out[workload] = {
            "pairs": pairs, "seeds": seeds, "first_side": firsts,
            **{side: {m: summary(values[side][m]) for m in metrics} for side in SIDES},
            "comparison": {m: compare(values["parent"][m], values["change"][m], *metrics[m])
                           for m in metrics},
            "runs": runs,
        }
    return out, machine


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--hashes", help="a BENCH_*.json whose outputs.configs to hash")
    parser.add_argument("--trace-seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    results, machine = bench_pairs(checkouts, workloads, args.pairs, args.seconds, args.seed,
                                   metrics)
    doc = {
        "pr": args.pr,
        "method": (f"tools/bench_pairs.py: {args.pairs} pairs per workload of "
                   f"perfbench/run.py --seconds {args.seconds:g} --trace 0, alternating "
                   f"which side runs first, a fresh seed per pair"),
        "machine": machine,
        "workloads": results,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        doc["claim"] = {"workload": workload, "metric": metric,
                        **results[workload]["comparison"][metric]}
    if args.hashes:
        tool = os.path.join(checkouts["change"], "tools", "output_hashes.py")
        hashes = {side: json.loads(subprocess.run(
            [sys.executable, tool, os.path.abspath(args.hashes), "--src",
             os.path.join(path, "src")], capture_output=True, text=True, check=True).stdout)
            for side, path in checkouts.items()}
        doc["output_hashes"] = {**hashes, "differ": sorted(
            name for name in hashes["parent"] if hashes["parent"][name] != hashes["change"].get(name))}
    if args.trace_seconds:
        doc["traced"] = {}
        for workload in workloads:
            doc["traced"][workload] = {}
            for side, path in checkouts.items():
                result, _ = run_bench(path, workload, args.seed, args.trace_seconds, trace=1)
                doc["traced"][workload][side] = {
                    "correct": result["correct"], "failed": result["failed"],
                    "metrics": {m: v["value"] for m, v in result["metrics"].items()}}
    with open(args.out or f"BENCH_{args.pr}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
