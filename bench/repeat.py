"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads a,b]

Each run is the end-to-end run (--trace 0). Workloads alternate within each
seed, so slow spells of a shared host spread over all of them. For every
end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json. Raw values go to .bench_out/repeat.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    walls: dict[str, list[float]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            start = time.monotonic()
            child = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
            walls[workload].append(time.monotonic() - start)
            if child.returncode != 0:
                print(child.stderr, file=sys.stderr)
                return 1
            result = json.loads(child.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} tasks failed", file=sys.stderr)
            for metric, entry in result["metrics"].items():
                values[workload].setdefault(metric, []).append(entry["value"])
            print(f"{workload} seed {seed}: {walls[workload][-1]:.1f} s wall", file=sys.stderr)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':<18} {'metric':<28} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in workloads:
        for metric, series in values[workload].items():
            q1, med, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else [series[0]] * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            flag = " !" if bound is not None and spread > bound / 3 else ""
            print(f"{workload:<18} {metric:<28} {len(series):>3} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>7.3f} {bound if bound is not None else '-':>6}{flag}")
        print(f"{workload:<18} {'(wall per run, s)':<28} {len(walls[workload]):>3} "
              f"{statistics.median(walls[workload]):>12.1f}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps({"values": values, "walls": walls}, indent=1),
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
