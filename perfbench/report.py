"""Run every workload over several seeds and print medians and spreads.

    python3 perfbench/report.py --seeds 1-10 --seconds 20
    python3 perfbench/report.py --seeds 1,2,3 --trace 1

For each workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartile as a share of
the median (`statistics.quantiles(values, n=4)`), the figure the bounds in
BENCHMARK.json are compared against.  With `--trace 0` it also prints
`error_rate`, failed over attempted command invocations.  Each run is a
separate `run.py` process, as the benchmark is meant to be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
WORKLOADS = ("pipeline", "parallel", "eval", "long")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, sep, high = part.partition("-")
        seeds.extend(range(int(low), int(high) + 1) if sep else [int(low)])
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if result.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {result.returncode}: {result.stderr}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}  ({len(seeds)} seeds, {args.seconds} s each)")
        for name, series in values.items():
            print(f"  {name:40s} {statistics.median(series):14.4f} {units[name]:12s} "
                  f"spread {spread(series):.4f}")
        print(f"  {'error_rate':40s} {failed / attempted:14.4f} {'ratio':12s} "
              f"({failed} of {attempted} invocations)")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
