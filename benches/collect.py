#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

Usage, from the root of a checkout:

    python3 benches/collect.py --seeds 1-10 --seconds 40 --out benches/baseline.json

For every workload this makes one untraced run per seed and one traced run
on the first seed, then writes per-metric values, median, quartiles and
spread (quartile distance over median, from ``statistics.quantiles(n=4)``)
together with the traced per-layer metrics and the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, hi = (int(p) for p in text.split("-"))
    return list(range(lo, hi + 1))


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return {"line": line, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range a-b")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    seeds = _seeds(args.seeds)
    summary = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            r = _run(name, seed, args.seconds, 0)
            runs.append(r)
            print(f"{name} seed {seed}: " + json.dumps(r["line"]), flush=True)
        metrics = {}
        for metric in runs[0]["line"]["metrics"]:
            values = [r["line"]["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {
                "unit": runs[0]["line"]["metrics"][metric]["unit"],
                "values": values,
                "median": statistics.median(values),
                "quartiles": [q1, med, q3],
                "spread": (q3 - q1) / statistics.median(values),
            }
            print(f"  {metric}: median {metrics[metric]['median']:.6g} "
                  f"{metrics[metric]['unit']}, spread {metrics[metric]['spread']:.4f}",
                  flush=True)
        entry = {
            "correct": all(r["line"]["correct"] for r in runs),
            "attempted": sum(r["line"]["attempted"] for r in runs),
            "failed": sum(r["line"]["failed"] for r in runs),
            "repetitions_per_run": [len(r["record"]["repetitions"]) for r in runs],
            "inputs": {s: r["record"]["inputs"] for s, r in zip(seeds, runs)},
            "end_to_end": metrics,
        }
        t = _run(name, seeds[0], args.seconds, 1)
        entry["traced"] = {
            "seed": seeds[0],
            "correct": t["line"]["correct"],
            "self_test": t["record"]["self_test"],
            "metrics": {k: v["value"] for k, v in t["line"]["metrics"].items()},
            "dims": {
                k: v["dims"] for k, v in t["record"]["trace"]["layers"].items()
                if "dims" in v
            },
        }
        print(f"  traced: correct {t['line']['correct']}", flush=True)
        summary["workloads"][name] = entry
        summary["machine"] = runs[0]["record"]["machine"]
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
