"""Steadiness check: run a workload on several seeds and report the spread.

Run from the repository root::

    python3 perfbench/steady.py --workload lib-distinct --seeds 1-10

For every end-to-end metric it prints the median over the runs and the
spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``.  A benchmark is steady when every spread but
``setup_s``'s is below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_arg(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(
            f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)

    worst = 0.0
    for name, bound in bounds.items():
        values = [run[name] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name:16s} median={median:12.5g} spread={spread:7.4f} "
              f"bound={bound:5.3f} spread/bound={spread / bound:5.2f}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
