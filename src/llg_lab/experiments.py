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
import math
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attack import (
    DUMMY_KINDS,
    AttackParams,
    estimate_impact_shared,
    estimate_params_auxiliary,
    estimate_params_whitebox,
    llg_extract,
    random_guess,
)
from .data import SyntheticSpec, partition_clients, synth_generate
from .defenses import apply_defense
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
DEFENSE_KINDS = ("none", "noise", "clip_noise", "compress")

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
# row seed labels are keyed tag first, so no row label equals a stream's state
_STREAM_ROW = 16


def _seed_words(parts) -> np.ndarray:
    """The uint32 words SeedSequence(list(parts)) reads. Every part is one
    32-bit word (the master seed is bounded to make it so), and a uint32
    array gives the same sequence and spares numpy an array per part."""
    for part in parts:
        if not 0 <= part < 2**32:
            raise ValueError(f"expected non-negative integer below 2**32, got {part}")
    return np.array(parts, dtype=np.uint32)


def rng_for(*parts: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(_seed_words(parts)))


def seed_of(*parts: int) -> int:
    return int(np.random.SeedSequence(_seed_words(parts)).generate_state(1)[0])


def check_fields(cls, raw: dict, what: str) -> None:
    """Reject a key of raw that names no field of the dataclass cls."""
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def check_types(obj, what: str) -> None:
    """Reject a field of the dataclass instance obj whose value is not of
    the type its class declares. A bool is no number, an int is a float, a
    float is finite (inf would pass a `>= lo` rule), and a tuple field
    takes a list or a tuple of its item type."""
    for name, hint in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _conforms(value, hint):
            declared = hint.__name__ if isinstance(hint, type) else hint
            finite = not isinstance(value, float) or math.isfinite(value)
            raise ValueError(f"{what} field {name!r} must be {declared}, got {value!r}"
                             + ("" if finite else " (numbers must be finite)"))


def _conforms(value, hint) -> bool:
    if hint is int or hint is float:
        return (isinstance(value, (int, hint)) and not isinstance(value, bool)
                and (isinstance(value, int) or math.isfinite(value)))
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _conforms(item, arg) for arg in get_args(hint)[:1] for item in value)
    return isinstance(value, hint)


def check_rules(obj, rules) -> None:
    """Check each (rule, message) of obj's table in order. A message names
    its field and is formatted with obj's fields."""
    for rule, message in rules:
        if not rule(obj):
            raise ValueError(message.format(**vars(obj)))


# each rule holds for a valid value and is written so that NaN fails it
_DEFENSE_RULES = (
    (lambda d: d.kind in DEFENSE_KINDS,
     "unknown defense kind {kind!r}; choose from " + str(DEFENSE_KINDS)),
    (lambda d: d.sigma >= 0, "sigma must be >= 0"),
    (lambda d: d.kind != "clip_noise" or d.beta > 0, "beta must be positive"),
    (lambda d: d.kind != "compress" or 0.0 <= d.theta < 1.0, "theta must lie in [0, 1)"),
)


@dataclass(frozen=True)
class DefenseSpec:
    """Declarative defense configuration for the experiment runner."""

    kind: str = "none"  # none | noise | clip_noise | compress
    sigma: float = 0.0
    beta: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        check_types(self, "defense")
        check_rules(self, _DEFENSE_RULES)

    @property
    def draws(self) -> bool:
        """Whether applying this defense draws from a random stream."""
        return self.kind in ("noise", "clip_noise")

    def label(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "noise":
            return f"noise(sigma={self.sigma})"
        if self.kind == "clip_noise":
            return f"clip_noise(beta={self.beta},sigma={self.sigma})"
        return f"compress(theta={self.theta})"

    @classmethod
    def from_dict(cls, raw: dict) -> "DefenseSpec":
        if not isinstance(raw, dict):
            raise ValueError(f"defense must be an object, got {type(raw).__name__}")
        check_fields(cls, raw, "defense")
        return cls(**raw)


_CONFIG_RULES = (
    (lambda c: c.experiment in EXPERIMENTS,
     "unknown experiment {experiment!r}; choose from " + str(sorted(EXPERIMENTS))),
    (lambda c: c.algorithm in ALGORITHMS,
     "algorithm must be one of " + str(ALGORITHMS) + ", got {algorithm!r}"),
    (lambda c: c.gamma >= 1, "gamma must be >= 1"),
    (lambda c: c.model in MODELS, "model must be one of " + str(MODELS) + ", got {model!r}"),
    (lambda c: len(c.attacks) >= 1, "attacks must name at least one attack"),
    (lambda c: set(c.attacks) <= set(ATTACKS),
     "unknown attacks in attacks {attacks}; choose from " + str(ATTACKS)),
    (lambda c: len(c.batch_sizes) >= 1, "batch_sizes must name at least one batch size"),
    (lambda c: len(c.defenses) >= 1, "defenses may not be empty; use kind 'none'"),
    (lambda c: c.trials >= 1, "trials must be >= 1"),
    (lambda c: 0 <= c.master_seed < 2**32,
     "master_seed must lie in [0, 2**32), got {master_seed}"),
    (lambda c: c.hidden >= 1, "hidden must be >= 1"),
    # a negative input_dim is no square either
    (lambda c: c.model != "cnn" or math.isqrt(max(c.input_dim, 0)) ** 2 == c.input_dim,
     "the cnn model needs a square input_dim, got {input_dim}"),
    (lambda c: c.dummy_kind in DUMMY_KINDS, "unknown dummy_kind {dummy_kind!r}"),
    (lambda c: c.eta > 0, "eta must be positive"),
    (lambda c: c.rounds >= 1, "rounds must be >= 1"),
    (lambda c: c.n_clients >= 1, "n_clients must be >= 1"),
    (lambda c: c.samples_per_client >= 1, "samples_per_client must be >= 1"),
    (lambda c: 1 <= c.clients_per_round <= c.n_clients,
     "clients_per_round must be in [1, n_clients]"),
    (lambda c: c.experiment != "convergence_sweep" or len(c.batch_sizes) == 1,
     "convergence_sweep needs exactly one batch size in batch_sizes"),
    (lambda c: c.experiment != "convergence_sweep" or len(c.defenses) == 1,
     "convergence_sweep supports a single defense in defenses"),
)


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
        check_rules(self, _CONFIG_RULES)
        # the specs the run is built from check their own values
        self.data_spec()
        for size in self.batch_sizes:
            BatchSpec(size, self.balance)
        Activation(self.activation)

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


def _build_model(config: ExperimentConfig, seed: int):
    if config.model == "mlp":
        return mlp(config.input_dim, config.n_classes, hidden=config.hidden,
                   seed=seed, activation=config.activation)
    side = math.isqrt(config.input_dim)
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
    rng_for(master, kind, *rng_key, _STREAM_ATTACK, a), built only for the
    attacks that draw: llg, llg_plus and llg_star's zeros and ones dummies
    do not."""
    logits, penultimate = net.infer(test.xs)
    calibration = config.experiment == "calibration_plot"
    guesses = []
    for a_idx, attack in enumerate(("llg_plus",) if calibration else config.attacks):
        draws = attack == "random" or (
            attack == "llg_star" and config.dummy_kind == "uniform_random")
        rng = (rng_for(config.master_seed, KIND_INDEX[config.experiment], *rng_key,
                       _STREAM_ATTACK, a_idx) if draws else None)
        if attack == "llg":
            guess = None
        elif attack == "random":
            guess = random_guess(config.n_classes, sample_count, rng)
        elif attack == "llg_star":
            guess = estimate_params_whitebox(net, batch_size, dummy_kind=config.dummy_kind,
                                             rng=rng)
        else:  # llg_plus; _CONFIG_RULES rejects any other name
            guess = estimate_params_auxiliary(logits, penultimate, test, batch_size)
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
                guess = AttackParams(estimate_impact_shared(last), np.zeros(config.n_classes))
            extracted = guess if attack == "random" else llg_extract(last, guess)
            score = attack_success_rate(extracted, truth)
            distance = hellinger(extracted, truth)
        rows.append(ResultRow(attack=attack, asr=score, hellinger=distance,
                              seed=seed_of(_STREAM_ROW, config.master_seed,
                                           KIND_INDEX[config.experiment], d_idx, b_idx, a_idx,
                                           trial),
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
    del pool  # the rounds read only the clients and the held-out set
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
