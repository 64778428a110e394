"""Print the sha256 of every CSV the shipped configs and benchmark workloads emit.

    python3 tools/csv_digests.py

Runs configs/calibration.json at its full trials, every other grid config
at 3 trials, convergence.json at 40 rounds, and each bench/harness.py
workload at master seeds 1 and 7, one after the other in this process with
BLAS pinned to one thread, and prints one "<run>  <sha256>" line per CSV. A
change that must keep the CSV bytes prints the same 13 lines as its parent.
No run reaches the llg fallback (no negative row sum to estimate the impact
from), so a bit-for-bit claim on that path rests on the tests.
Calibration's score column prints every repr digit of |rho|, and at 3
trials its digest missed last-digit moves that the full-size CSV shows; the
full run takes about 0.8 s. The bits depend on the BLAS build, so compare
two commits on one machine; this is not part of the test suite.
Each run's wall time goes to stderr ("<run>  <seconds> s"), so stdout stays
comparable with diff across commits.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import hashlib
import io
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import llg_lab  # noqa: E402
from harness import WORKLOADS, workload_config  # noqa: E402

SEEDS = (1, 7)


def digest(config) -> str:
    buffer = io.StringIO()
    llg_lab.emit_csv(llg_lab.run_experiment(config), buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def runs():
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = llg_lab.load_config(path)
        if config.experiment == "convergence_sweep":
            config = replace(config, rounds=40)
        elif config.experiment != "calibration_plot":
            config = replace(config, trials=3)
        yield path.name, config
    for name in WORKLOADS:
        for seed in SEEDS:
            raw = workload_config(name, seed)
            yield f"{name} seed {seed}", llg_lab.ExperimentConfig.from_dict(raw)


def main() -> int:
    for label, config in runs():
        start = time.perf_counter()
        line = f"{label:<26}{digest(config)}"
        print(f"{label:<26}{time.perf_counter() - start:.2f} s", file=sys.stderr, flush=True)
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
