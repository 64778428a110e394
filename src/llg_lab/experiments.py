"""Config-driven experiment runner.

A grid experiment walks its (batch size x trial) cells. Each cell builds the
model, the victim update, the model's test accuracy and every attack's
model-side guess once; each defense arm then applies only its defense to
that update, extracts and scores, so the arms differ by the defense alone.
Rows come out arm by arm, one per (defense, batch size, trial, attack). A
convergence sweep instead attacks the victim client of every federated
round. Every random draw is derived from (master_seed, cell indices, trial
index), so a config and a seed fully determine the output bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attack import (
    DUMMY_KINDS,
    AttackParams,
    NoNegativeGradients,
    estimate_impact_shared,
    estimate_params_auxiliary,
    estimate_params_whitebox,
    llg_extract,
    random_guess,
    uniform_params,
)
from .data import SyntheticSpec, partition_clients, synth_generate
from .defenses import DefenseSpec, apply_defense, check_fields, check_types
from .fl import (
    BatchSpec,
    VALID_BATCH_SIZES,
    local_train_fedavg,
    local_train_fedsgd,
    make_batch,
    select_clients,
    server_aggregate,
)
from .labels import LabelMultiset
from .metrics import attack_success_rate, hellinger, pearson, test_accuracy
from .nn import Activation, Gradients, mlp, small_cnn

ATTACKS = ("llg", "llg_star", "llg_plus", "random")
MODELS = ("mlp", "cnn")
ALGORITHMS = ("fedsgd", "fedavg")

EXPERIMENTS = {
    "asr_vs_batchsize": "attack success rate per attack and batch size on fresh models",
    "defense_sweep": "asr_vs_batchsize with one or more gradient defenses applied",
    "convergence_sweep": "federated training with the victim client attacked every round",
    "calibration_plot": "|Pearson rho| between offset-calibrated gradient sums and label counts",
}

KIND_INDEX = {name: i + 1 for i, name in enumerate(EXPERIMENTS)}

# stream tags keep derived seed sequences for different purposes disjoint
_STREAM_DATA = 101
_STREAM_PARTITION = 102
_STREAM_MODEL = 11
_STREAM_VICTIM = 12
_STREAM_DEFENSE = 13
_STREAM_ATTACK = 14
_STREAM_SELECT = 15


def rng_for(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def seed_of(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    algorithm: str = "fedsgd"
    gamma: int = 10
    attacks: tuple[str, ...] = ATTACKS
    model: str = "mlp"
    batch_sizes: tuple[int, ...] = VALID_BATCH_SIZES
    balance: str = "unbalanced"
    defenses: tuple[DefenseSpec, ...] = (DefenseSpec(),)
    trials: int = 100
    master_seed: int = 0
    out: str | None = None
    # dataset and training knobs (desk-scale defaults)
    n_classes: int = 10
    input_dim: int = 64
    samples_per_class: int = 500
    cluster_spread: float = 0.3
    hidden: int = 64
    activation: str = "sigmoid"
    eta: float = 0.1
    dummy_kind: str = "zeros"
    # convergence-sweep knobs
    rounds: int = 1000
    n_clients: int = 50
    clients_per_round: int = 10
    samples_per_client: int = 80

    def __post_init__(self):
        check_types(self, "config")
        # a tuple field given as a list is stored as a tuple, so that a
        # config built directly or by `replace` hashes and compares like one
        # loaded from JSON
        for name, hint in get_type_hints(type(self)).items():
            if get_origin(hint) is tuple:
                object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {sorted(EXPERIMENTS)}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not self.attacks:
            raise ValueError("at least one attack is required")
        unknown = set(self.attacks) - set(ATTACKS)
        if unknown:
            raise ValueError(f"unknown attacks: {sorted(unknown)}; choose from {ATTACKS}")
        if not self.batch_sizes:
            raise ValueError("at least one batch size is required")
        if not self.defenses:
            raise ValueError("defenses may not be empty; use kind 'none'")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        # the specs the run is built from check their own values
        self.data_spec()
        for size in self.batch_sizes:
            BatchSpec(size, self.balance)
        Activation(self.activation)
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.model == "cnn":
            side = int(round(np.sqrt(self.input_dim)))
            if side * side != self.input_dim:
                raise ValueError(
                    f"the cnn model needs a square input_dim, got {self.input_dim}"
                )
        if self.dummy_kind not in DUMMY_KINDS:
            raise ValueError(f"unknown dummy_kind {self.dummy_kind!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.rounds < 1 or self.n_clients < 1 or self.samples_per_client < 1:
            raise ValueError("rounds, n_clients, and samples_per_client must be >= 1")
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ValueError("clients_per_round must be in [1, n_clients]")
        if self.experiment == "convergence_sweep":
            if len(self.batch_sizes) != 1:
                raise ValueError("convergence_sweep needs exactly one batch size")
            if len(self.defenses) != 1:
                raise ValueError("convergence_sweep supports a single defense")

    def data_spec(self) -> SyntheticSpec:
        """The run's synthetic dataset, seeded from the master seed."""
        return SyntheticSpec(n_classes=self.n_classes, input_dim=self.input_dim,
                             samples_per_class=self.samples_per_class,
                             cluster_spread=self.cluster_spread,
                             seed=seed_of(self.master_seed, _STREAM_DATA))

    def algorithm_label(self) -> str:
        return "fedsgd" if self.algorithm == "fedsgd" else f"fedavg({self.gamma})"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError(f"config must be an object, got {type(raw).__name__}")
        raw = dict(raw)
        # trials run one after another; configs that name the one worker
        # this implies still load. Only the int 1 does: true and 1.0 compare
        # equal to 1 but are not it
        workers = raw.pop("workers", 1)
        if type(workers) is not int or workers != 1:
            raise ValueError(f"workers must be 1: trials run one after another, "
                             f"got {workers!r}")
        if "defense" in raw and "defenses" in raw:
            raise ValueError("give either 'defense' or 'defenses', not both")
        if "defense" in raw:
            raw["defenses"] = [raw.pop("defense")]
        check_fields(cls, raw, "config")
        if isinstance(raw.get("defenses"), (list, tuple)):
            raw["defenses"] = [d if isinstance(d, DefenseSpec) else DefenseSpec.from_dict(d)
                               for d in raw["defenses"]]
        return cls(**raw)


def load_config(path) -> ExperimentConfig:
    """Parse a JSON config file into a validated ExperimentConfig."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    algorithm: str
    attack: str
    model: str
    batch_size: int
    defense: str
    trial: int
    asr: float | None
    hellinger: float | None
    model_accuracy: float
    seed: int


CSV_HEADER = [f.name for f in fields(ResultRow)]
_CELL_TYPES = list(get_type_hints(ResultRow).values())


def _build_model(config: ExperimentConfig, seed: int):
    if config.model == "mlp":
        return mlp(config.input_dim, config.n_classes, hidden=config.hidden,
                   seed=seed, activation=config.activation)
    side = int(round(np.sqrt(config.input_dim)))
    return small_cnn((side, side), config.n_classes, seed=seed,
                     activation=config.activation)


def _victim_update(config: ExperimentConfig, net, pool, batch_size: int, rng):
    spec = BatchSpec(batch_size, config.balance)
    if config.algorithm == "fedsgd":
        xs, ys = make_batch(pool, spec, rng)
        update = local_train_fedsgd(net, xs, ys)
        return update, LabelMultiset.from_labels(ys, config.n_classes)
    return local_train_fedavg(net, [pool], spec, config.gamma, config.eta, [rng])[0]


def _guesses(config: ExperimentConfig, net, test, batch_size: int, sample_count: int,
             rng_key: tuple) -> tuple[float, list[tuple]]:
    """The model's test accuracy and (attack, guess) per attack, from the
    undefended model alone: the llg_star/llg_plus AttackParams, the random
    multiset, or None for llg, whose estimate reads the shared gradient.
    One forward pass over the held-out set gives the accuracy and llg_plus's
    rows. calibration_plot has the one llg_plus guess. Attack a draws from
    rng_for(master, kind, *rng_key, _STREAM_ATTACK, a)."""
    logits, cache = net.forward(test.xs)
    calibration = config.experiment == "calibration_plot"
    guesses = []
    for a_idx, attack in enumerate(("llg_plus",) if calibration else config.attacks):
        rng = rng_for(config.master_seed, KIND_INDEX[config.experiment], *rng_key,
                      _STREAM_ATTACK, a_idx)
        if attack == "llg":
            guess = None
        elif attack == "random":
            guess = random_guess(config.n_classes, sample_count, rng)
        elif attack == "llg_star":
            guess = estimate_params_whitebox(net, batch_size, sample_count,
                                             dummy_kind=config.dummy_kind, rng=rng)
        elif attack == "llg_plus":
            guess = estimate_params_auxiliary(logits, cache.penultimate, test, batch_size,
                                              sample_count, rng)
        else:
            raise ValueError(f"unknown attack {attack!r}")
        guesses.append((attack, guess))
    return test_accuracy(logits, test.ys), guesses


def _attack_rows(config: ExperimentConfig, accuracy: float, guesses: list, update, truth,
                 cell: tuple[int, int, int]) -> list[ResultRow]:
    """Score one defended update against the cell's guesses: one ResultRow
    per attack, or the single llg_plus calibration row of calibration_plot.
    cell is (defense index, batch-size index, trial) and places the row seeds.
    """
    d_idx, b_idx, trial = cell
    last = update.last_layer()
    n, d = config.n_classes, update.sample_count
    common = dict(experiment=config.experiment, algorithm=config.algorithm_label(),
                  model=config.model, batch_size=config.batch_sizes[b_idx],
                  defense=config.defenses[d_idx].label(), trial=trial,
                  model_accuracy=accuracy)
    rows = []
    for a_idx, (attack, guess) in enumerate(guesses):
        distance = None
        if config.experiment == "calibration_plot":
            try:
                score: float | None = abs(pearson(last.g - guess.offsets, truth.counts))
            except ValueError:
                score = None  # degenerate: constant counts or constant gradients
        else:
            if attack == "llg":
                try:
                    guess = AttackParams(estimate_impact_shared(last), np.zeros(n), d)
                except NoNegativeGradients:
                    guess = uniform_params(n, d)
            extracted = guess if attack == "random" else llg_extract(last, guess)
            score = attack_success_rate(extracted, truth)
            distance = hellinger(extracted, truth)
        rows.append(ResultRow(attack=attack, asr=score, hellinger=distance,
                              seed=seed_of(config.master_seed, KIND_INDEX[config.experiment],
                                           d_idx, b_idx, a_idx, trial),
                              **common))
    return rows


def _run_grid(config: ExperimentConfig, progress=None) -> list[ResultRow]:
    master, kind_idx = config.master_seed, KIND_INDEX[config.experiment]
    pool, test = synth_generate(config.data_spec())
    arms: list[list[ResultRow]] = [[] for _ in config.defenses]
    for b_idx, trial in product(range(len(config.batch_sizes)), range(config.trials)):
        batch_size = config.batch_sizes[b_idx]
        net = _build_model(config, seed_of(master, kind_idx, b_idx, trial, _STREAM_MODEL))
        victim_rng = rng_for(master, kind_idx, b_idx, trial, _STREAM_VICTIM)
        update, truth = _victim_update(config, net, pool, batch_size, victim_rng)
        accuracy, guesses = _guesses(config, net, test, batch_size, update.sample_count,
                                     (b_idx, trial))
        for d_idx, defense in enumerate(config.defenses):
            defended = update
            if defense.kind != "none":
                residual = Gradients.zeros_for(net) if defense.kind == "compress" else None
                defense_rng = (rng_for(master, kind_idx, d_idx, b_idx, trial, _STREAM_DEFENSE)
                               if defense.draws else None)
                defended = apply_defense(update, defense, defense_rng, residual)
            arms[d_idx] += _attack_rows(config, accuracy, guesses, defended, truth,
                                        (d_idx, b_idx, trial))
            if progress is not None:
                progress()
    return [row for rows in arms for row in rows]


def _run_convergence(config: ExperimentConfig, progress=None) -> list[ResultRow]:
    master, kind_idx = config.master_seed, KIND_INDEX[config.experiment]
    batch_size = config.batch_sizes[0]
    defense = config.defenses[0]
    pool, test = synth_generate(config.data_spec())
    clients = partition_clients(pool, config.n_clients, config.samples_per_client,
                                rng_for(master, _STREAM_PARTITION))
    net = _build_model(config, seed_of(master, kind_idx, _STREAM_MODEL))
    spec = BatchSpec(batch_size, config.balance)
    # FedSGD is the gamma = 1 case of FedAvg, bit for bit
    gamma = config.gamma if config.algorithm == "fedavg" else 1
    residuals: dict[int, Gradients] = {}
    rows: list[ResultRow] = []
    for round_idx in range(1, config.rounds + 1):
        selected = select_clients(config.n_clients, config.clients_per_round,
                                  rng_for(master, kind_idx, round_idx, _STREAM_SELECT))
        rngs = [rng_for(master, cid, round_idx) for cid in selected]
        trained = local_train_fedavg(net, [clients[cid] for cid in selected], spec, gamma,
                                     config.eta, rngs)
        updates = []
        for cid, (update, _) in zip(selected, trained):
            if defense.kind != "none":
                if defense.kind == "compress" and cid not in residuals:
                    residuals[cid] = Gradients.zeros_for(net)
                defense_rng = (rng_for(master, kind_idx, cid, round_idx, _STREAM_DEFENSE)
                               if defense.draws else None)
                update = apply_defense(update, defense, defense_rng, residuals.get(cid))
            updates.append(update)
        # select_clients puts the victim, client 0, first
        victim_update, victim_truth = updates[0], trained[0][1]
        accuracy, guesses = _guesses(config, net, test, batch_size, victim_update.sample_count,
                                     (round_idx,))
        rows += _attack_rows(config, accuracy, guesses, victim_update, victim_truth,
                             (0, 0, round_idx))
        server_aggregate(updates, net, config.eta)
        if progress is not None:
            progress()
    return rows


def run_experiment(config: ExperimentConfig, progress=None) -> list[ResultRow]:
    """Run one experiment; returns one ResultRow per (cell, trial, attack)."""
    if config.experiment == "convergence_sweep":
        return _run_convergence(config, progress)
    return _run_grid(config, progress)


def task_count(config: ExperimentConfig) -> int:
    """Number of progress callbacks run_experiment will make."""
    if config.experiment == "convergence_sweep":
        return config.rounds
    return len(config.defenses) * len(config.batch_sizes) * config.trials


def emit_csv(rows: list[ResultRow], dest) -> None:
    """Write rows as UTF-8 CSV with LF line endings; dest is a path or a
    text stream. None cells are empty and floats keep their repr digits."""
    if not hasattr(dest, "write"):
        with open(dest, "w", encoding="utf-8", newline="") as handle:
            emit_csv(rows, handle)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(vars(row).values() for row in rows)


def read_csv(source) -> list[ResultRow]:
    """Parse a CSV produced by emit_csv back into ResultRow objects; source
    is a path or a text stream."""
    if not hasattr(source, "read"):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return read_csv(handle)
    name = getattr(source, "name", source)
    reader = csv.reader(source)
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"{name}: unexpected CSV header {header}")
    rows = []
    for record in reader:
        if len(record) != len(CSV_HEADER):
            raise ValueError(f"{name}: malformed row {record}")
        rows.append(ResultRow(*map(_parse_cell, record, _CELL_TYPES)))
    return rows


def _parse_cell(text: str, cell_type):
    # an empty cell of an optional (`float | None`) field is None
    optional = get_args(cell_type)
    if optional:
        return optional[0](text) if text else None
    return cell_type(text)


def format_summary(rows: list[ResultRow]) -> str:
    """Mean +/- std of the score column per (defense, attack, batch size)."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row.asr is None:
            continue
        groups.setdefault((row.defense, row.attack, row.batch_size), []).append(row.asr)
    lines = [f"{'defense':<28} {'attack':<10} {'batch':>5} {'mean':>8} {'std':>8} {'n':>6}"]
    for key in sorted(groups):
        values = np.array(groups[key])
        defense, attack, batch_size = key
        lines.append(
            f"{defense:<28} {attack:<10} {batch_size:>5} "
            f"{values.mean():>8.4f} {values.std():>8.4f} {len(values):>6}"
        )
    return "\n".join(lines)
