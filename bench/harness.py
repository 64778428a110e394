"""Workload definitions and the closed-loop pass runner.

A pass is one call of run_experiment on a workload's config followed by
emit_csv into memory. A run repeats passes with the same master seed, one
task after the next in a single process, so every pass must emit the same
bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field

CSV_HEADER = ("experiment,algorithm,attack,model,batch_size,defense,trial,"
              "asr,hellinger,model_accuracy,seed")

# master seed of the warm-up pass whose ASR means bench/reference.json records
REFERENCE_SEED = 7

# one pass of each workload; why each exists is in README.md and BENCHMARK.json
WORKLOADS = {
    "mlp_attack_grid": {
        "experiment": "asr_vs_batchsize", "algorithm": "fedsgd",
        "model": "mlp", "activation": "sigmoid",
        "attacks": ["llg", "llg_star", "llg_plus", "random"],
        "batch_sizes": [1, 2, 4, 8, 16, 32, 64, 128],
        "balance": "unbalanced", "trials": 4, "workers": 1,
    },
    "cnn_defense_grid": {
        "experiment": "defense_sweep", "algorithm": "fedsgd",
        "model": "cnn", "activation": "sigmoid",
        "attacks": ["llg_plus", "random"],
        "batch_sizes": [4, 8, 32],
        "defenses": [
            {"kind": "none"},
            {"kind": "noise", "sigma": 0.1},
            {"kind": "clip_noise", "beta": 1.0, "sigma": 0.1},
            {"kind": "compress", "theta": 0.8},
        ],
        "balance": "unbalanced", "trials": 1, "workers": 1,
    },
    "fedavg_rounds": {
        "experiment": "convergence_sweep", "algorithm": "fedavg", "gamma": 4,
        "model": "mlp", "activation": "sigmoid",
        "attacks": ["llg", "random"],
        "batch_sizes": [16],
        "defense": {"kind": "compress", "theta": 0.8},
        "balance": "unbalanced", "rounds": 100, "n_clients": 50,
        "clients_per_round": 10, "workers": 1,
    },
}


def workload_config(name: str, seed: int) -> dict:
    """The raw config dict of one pass; the workload seed becomes master_seed."""
    return dict(WORKLOADS[name], master_seed=seed)


def tasks_per_pass(raw: dict) -> int:
    """Progress callbacks one pass makes: one per grid cell or per round."""
    if raw["experiment"] == "convergence_sweep":
        return raw["rounds"]
    defenses = raw.get("defenses", [raw.get("defense", {"kind": "none"})])
    return len(defenses) * len(raw["batch_sizes"]) * raw["trials"]


def rows_per_task(raw: dict) -> int:
    return len(raw["attacks"])


def labels_per_row(raw: dict, batch_size: int) -> int:
    """Labels one extraction recovers: B under FedSGD, gamma * B under FedAvg."""
    return batch_size * (raw.get("gamma", 10) if raw.get("algorithm") == "fedavg" else 1)


def config_key(raw: dict) -> str:
    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class PassResult:
    seconds: float           # run_experiment + emit_csv
    csv: str
    task_s: list[float] = field(default_factory=list)  # between successive callbacks
    callbacks: int = 0

    @property
    def rows(self) -> int:
        return max(0, self.csv.count("\n") - 1)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.csv.encode("utf-8")).hexdigest()


def run_pass(lab, raw: dict, on_task=None) -> PassResult:
    """One closed-loop pass through the public API. on_task, if given, runs
    after each progress callback's timestamp is taken; the tracer uses it to
    mark task boundaries."""
    config = lab.ExperimentConfig.from_dict(raw)
    stamps: list[float] = []

    def progress():
        stamps.append(time.perf_counter())
        if on_task is not None:
            on_task()

    start = time.perf_counter()
    rows = lab.run_experiment(config, progress=progress)
    buffer = io.StringIO()
    lab.emit_csv(rows, buffer)
    seconds = time.perf_counter() - start
    return PassResult(seconds, buffer.getvalue(),
                      [b - a for a, b in zip(stamps, stamps[1:])], len(stamps))


def percentile(values, q: float) -> tuple[float, bool]:
    """Nearest-rank q-quantile (0 < q < 1) and whether it is trustworthy.

    The value at rank ceil(q * n) is returned; it is flagged (False) when
    fewer than ten samples lie beyond it, so p95 needs at least 200 samples.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank >= 10

