"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads interactive fine_grid verify --seeds 1-10

Runs the benchmark once per (workload, seed), one process at a time, and
prints for each metric its median, quartiles and spread: the distance
between the quartiles (statistics.quantiles, n=4) as a share of the
median, next to the bound in BENCHMARK.json.  ``--trace 1`` does the same
for the per-layer metrics, which have no bound.  ``--out`` writes the
figures as JSON, which is how perfbench/baseline*.json were recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s", flush=True)
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else None
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": values}
        report[workload] = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                            "all_correct": all(r["correct"] for r in runs), "metrics": rows}
        for name, row in rows.items():
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.3f}"
            line = (f"  {name:32s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                    f"q3 {row['q3']:.6g}  spread {spread}")
            if row["bound"] is not None:
                line += f" / bound {row['bound']}"
                if row["spread"] > row["bound"] / 3:
                    line += "  (over a third of bound)"
            print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
