"""Run a workload at several seeds, one fresh process each, and report spreads.

    python3 perfbench/spread.py --workload planted-node-pna --seeds 1-5

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound from BENCHMARK.json. Run it from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: {wall:.1f} s wall, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed; " + ", ".join(
                  f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()),
              flush=True)

    print(f"{'metric':36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        bound = bounds.get(name)
        print(f"{name:36} {statistics.median(values):14.6g} "
              f"{spread(values) if len(values) > 1 else 0.0:8.4f} "
              f"{bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
