"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload csc_reservoir --seeds 1-10 [--seconds S]

Runs ``perfbench/run.py`` once per seed, one run at a time, then prints
for every end-to-end metric its median and its spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json.
Aim for a spread below a third of the bound.
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


def parse_seeds(text: str) -> list[int]:
    """Seeds from "1-10", "1,1,1" or a mix of the two."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="seeds such as 1-10, or 1,1,1 to repeat one seed")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"seed {seed}: no result (exit code {proc.returncode})\n{proc.stderr}", flush=True)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)

    ok = all(r["correct"] for r in runs)
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        s = spread(values) if len(values) > 1 else 0.0
        print(f"{metric['name']:14s} median {statistics.median(values):12.6g} {metric['unit']:8s}"
              f" spread {s:7.4f}  bound {metric['bound']:.2f}"
              f"  {'ok' if s < metric['bound'] / 3 else 'WIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
