"""Measure a baseline: every workload on several seeds, plus one traced run each.

Usage, from the root of a source checkout:

    python3 bench/baseline.py [--seeds 1-10] [--seconds 30] [--output bench/baseline.json]

Runs ``bench/run.py`` one process at a time and writes, for each workload and
end-to-end metric (the unbounded ones too), the values, their median and
quartiles, and the spread (interquartile distance over median) that
BENCHMARK.json's bounds are held to, plus each run's unscaled figures. The
output file is written fresh.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("flow-12b", "transient-11b", "cli-4b")


def run(workload: str, seed: int, seconds: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output\n{done.stderr}")
    result = json.loads(lines[-1])
    result["record"] = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--output", default=str(BENCH / "baseline.json"))
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    output = Path(args.output)
    doc: dict = {"seeds": seeds, "seconds": float(args.seconds), "workloads": {}}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in seeds:
            result = run(workload, seed, args.seconds, 0)
            record = result["record"]
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "failures_by_kind": record["failures_by_kind"],
                         "op_tail": record["op_tail"], "unscaled": record["unscaled"]})
            for name, value in record["end_to_end"].items():
                values.setdefault(name, []).append(value)
            doc.update(commit=record["commit"], python=record["python"], numpy=record["numpy"],
                       nproc=record["nproc"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        metrics = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            metrics[name] = {"values": vals, "q1": q1, "median": statistics.median(vals), "q3": q3,
                             "spread": (q3 - q1) / statistics.median(vals)}
            print(f"  {workload} {name}: median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']:.4f}", flush=True)
        traced = run(workload, seeds[0], args.seconds, 1)
        doc["workloads"][workload] = {
            "runs": runs,
            "end_to_end": metrics,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        output.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
