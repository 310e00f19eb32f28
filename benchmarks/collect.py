#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/collect.py --seeds 10 [--sets 2] [--workloads cli-rigid,bootstrap]
                                  [--no-trace] [--out benchmarks/BENCH_1.json]

For every workload it makes ``--sets`` sets of runs of ``run.py``, one run at a
time and one run per seed (set k uses seeds kN+1..kN+N).  For each set it takes
each end-to-end metric's interquartile range as a share of its median --
``statistics.quantiles(values, n=4)`` -- and compares it with the metric's
bound in BENCHMARK.json.  With two or more sets it also compares every later
set's median with the first set's: the two must differ by no more than the
bound, in either direction.  Unless ``--no-trace`` is given it makes two
traced runs per workload with seed 1 and checks that every count (calls, rows,
misses, bytes, unknowns, flagged) repeats exactly.  It exits with 1 if any of
these checks fails.  ``--out`` writes everything, with the environment and the
per-case errors, as one JSON record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
            f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}"
        )
    detail = next(json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail "))
    return json.loads(lines[-1]), detail


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        entry = {"sets": [], "checks": {}}
        for set_no in range(args.sets):
            first = set_no * args.seeds + 1
            results = [run_once(workload, seed, args.seconds, 0)
                       for seed in range(first, first + args.seeds)]
            record["environment"] = results[-1][1]["environment"]
            entry["known_failures"] = results[-1][1]["known_failures"]
            for _, detail in results:
                for case, rec in detail["checks"].items():
                    worst = entry["checks"].setdefault(case, {"max_err": 0.0, "residual": 0.0})
                    worst["max_err"] = max(worst["max_err"], rec["max_err"])
                    worst["residual"] = max(worst["residual"], rec["residual"])
            correct = all(result["correct"] for result, _ in results)
            failed = sum(result["failed"] for result, _ in results)
            attempted = sum(result["attempted"] for result, _ in results)
            ok &= correct
            print(f"{workload} set {set_no + 1} (seeds {first}..{first + args.seeds - 1}): "
                  f"correct {correct}, failed {failed} of {attempted}")
            metrics = {}
            for name, bound in bounds.items():
                stats = spread([result["metrics"][name]["value"] for result, _ in results])
                within = stats["spread"] < bound
                ok &= within
                verdict = "below a third of the bound" if stats["spread"] < bound / 3 else (
                    "within the bound" if within else "WIDER THAN THE BOUND")
                line = (f"  {name:14s} median {stats['median']:.6g}  "
                        f"IQR/median {stats['spread']:.4f}  bound {bound}: {verdict}")
                if set_no:
                    base = entry["sets"][0]["metrics"][name]["median"]
                    stats["shift"] = (stats["median"] - base) / base
                    agree = abs(stats["shift"]) <= bound
                    ok &= agree
                    line += f"; median {stats['shift']:+.4f} from set 1" + (
                        "" if agree else " BEYOND THE BOUND")
                metrics[name] = stats
                print(line)
            entry["sets"].append({
                "seeds": [first, first + args.seeds - 1],
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            })
        if not args.no_trace:
            traced = [run_once(workload, 1, args.seconds, 1)[0] for _ in range(2)]
            counts = [
                {k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "bytes")}
                for t in traced
            ]
            repeat = counts[0] == counts[1]
            ok &= repeat and all(t["correct"] for t in traced)
            entry["trace"] = traced[0]["metrics"]
            entry["trace_counts_repeat"] = repeat
            print(f"  trace counts repeat exactly: {repeat}; "
                  f"overhead {traced[0]['metrics']['trace.overhead']['value']:.3f}")
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
