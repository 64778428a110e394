"""Federated training protocol: batch construction, FedSGD/FedAvg client
updates, client selection, and server-side weighted aggregation.

A client's shared object for one round is a RoundUpdate: the full parameter
gradient (one batch under FedSGD, the sum over gamma local steps under
FedAvg) plus the number of samples that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClientDataset
from .labels import LabelMultiset
from .nn import Gradients, LastLayerGradient, Network, output_gradient

VALID_BATCH_SIZES = tuple(2 ** k for k in range(8))
BALANCES = ("balanced", "unbalanced")


@dataclass(frozen=True)
class BatchSpec:
    """Batch size and label-composition mode for client batches.

    Unbalanced batches take floor(B/2) samples of a dominant label, floor(B/4)
    of a second label, and the remainder uniformly at random; balanced batches
    are drawn uniformly from the dataset. make_batch draws the (dominant,
    secondary) pair for every batch unless it is given one.
    """

    size: int
    balance: str = "unbalanced"

    def __post_init__(self):
        if self.size not in VALID_BATCH_SIZES:
            raise ValueError(f"batch size must be a power of two in [1, 128], got "
                             f"{self.size}; the batch sizes are the powers of two "
                             f"{VALID_BATCH_SIZES}")
        if self.balance not in BALANCES:
            raise ValueError(f"balance must be {' or '.join(map(repr, BALANCES))}, "
                             f"got {self.balance!r}")


def _draw_from(pool: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    # the draws of rng.choice(pool, count, replace=...) without its array
    # handling: the same entries, and the generator left in the same state
    if count > len(pool):  # fall back to replacement only when the class pool is too small
        return pool[rng.integers(0, len(pool), size=count)]
    return pool[rng.choice(len(pool), size=count, replace=False)]


def _present_labels(dataset: ClientDataset) -> np.ndarray:
    present = dataset.present_labels
    if len(present) < 2:
        raise ValueError("unbalanced batches need >= 2 distinct labels in the dataset")
    return present


def _draw_pair(present: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # rng.choice(present, size=2, replace=False), read by index as in _draw_from
    return present[rng.choice(len(present), size=2, replace=False)]


def _unbalanced_indices(dataset: ClientDataset, size: int, dominant, secondary,
                        rng: np.random.Generator) -> np.ndarray:
    n_dom, n_sec = size // 2, size // 4
    return np.concatenate([
        _draw_from(dataset.class_indices(dominant), n_dom, rng),
        _draw_from(dataset.class_indices(secondary), n_sec, rng),
        rng.integers(0, len(dataset), size=size - n_dom - n_sec),
    ])


def batch_indices(dataset: ClientDataset, spec: BatchSpec, rng: np.random.Generator,
                  pair: tuple[int, int] | None = None) -> np.ndarray:
    """The row indices of one batch: make_batch's draws without its gather."""
    if spec.balance == "balanced":
        if pair is not None:
            raise ValueError("a balanced batch takes no label pair")
        return rng.integers(0, len(dataset), size=spec.size)
    present = _present_labels(dataset)
    if pair is None:
        pair = _draw_pair(present, rng)
    dominant, secondary = pair
    if dominant == secondary:
        raise ValueError("dominant and secondary labels must differ")
    for label in pair:
        if not len(dataset.class_indices(label)):
            raise ValueError(f"pair label {int(label)} is absent from the dataset")
    return _unbalanced_indices(dataset, spec.size, dominant, secondary, rng)


def make_batch(dataset: ClientDataset, spec: BatchSpec, rng: np.random.Generator,
               pair: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw one batch; returns (features, labels) with labels in [1, n].

    An unbalanced batch takes its (dominant, secondary) labels from pair, or
    draws two distinct present labels when pair is None; a balanced batch
    takes no pair.
    """
    idx = batch_indices(dataset, spec, rng, pair)
    return dataset.xs[idx], dataset.ys[idx]


def _round_indices(dataset: ClientDataset, spec: BatchSpec, gamma: int,
                   rng: np.random.Generator) -> np.ndarray:
    """One client's (gamma, B) row indices for a FedAvg round, drawn in the
    order a make_batch per step would draw them.

    The round keeps one dominant label (the client's data skew); the
    secondary is redrawn per batch. The first pair is drawn exactly like
    make_batch would, so gamma=1 is bit-identical to FedSGD.
    """
    if spec.balance == "balanced":
        return np.stack([batch_indices(dataset, spec, rng) for _ in range(gamma)])
    present = _present_labels(dataset)
    dominant, secondary = _draw_pair(present, rng)
    others = present[present != dominant]
    table = np.empty((gamma, spec.size), dtype=np.int64)
    for step in range(gamma):
        if step > 0:
            secondary = others[rng.integers(len(others))]  # rng.choice(others)
        table[step] = _unbalanced_indices(dataset, spec.size, dominant, secondary, rng)
    return table


@dataclass
class RoundUpdate:
    """One client's shared gradient for one communication round."""

    gradients: Gradients
    sample_count: int

    def last_layer(self) -> LastLayerGradient:
        dW = self.gradients.head[0]  # bias gradients stay out of g by design
        return LastLayerGradient(dW, self.sample_count)


def local_train_fedsgd(net: Network, batch: np.ndarray, labels) -> RoundUpdate:
    """Gradient of a single local batch; the model itself is left untouched
    (under FedSGD the global step happens at the server)."""
    logits, cache = net.forward(batch)
    grads = net.backward(cache, output_gradient(logits, labels))
    return RoundUpdate(grads, len(labels))


def local_train_fedavg(net: Network, datasets: list[ClientDataset], spec: BatchSpec,
                       gamma: int, eta: float, rngs: list[np.random.Generator],
                       ) -> list[tuple[RoundUpdate, LabelMultiset]]:
    """Run gamma local SGD steps per client on its own copy of the model
    and share each client's summed per-step gradients.

    Client c draws from datasets[c] with rngs[c] alone: its gamma batches,
    in the order a make_batch per step draws them, before any training. So
    no two entries of rngs may share a bit generator. The clients train as
    one network with a leading client axis (`net.replicas`), row c of which
    has the bits client c gets alone. Returns one (update, truth) per client,
    in order; the truth is the multiset of all labels the local steps
    consumed (gamma * B of them), never visible to an attack.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    if not datasets or len(datasets) != len(rngs):
        raise ValueError(f"need one rng per dataset, got {len(datasets)} datasets "
                         f"and {len(rngs)} rngs")
    owners: dict[int, int] = {}
    for c, rng in enumerate(rngs):
        first = owners.setdefault(id(rng.bit_generator), c)
        if first != c:
            raise ValueError(f"rngs[{first}] and rngs[{c}] share one bit generator; "
                             f"each client needs a stream of its own")
    # each client draws its whole round, then one gather per client gives
    # (gamma, K, B, ...) arrays whose step s is the stacked (K, B, ...) batch
    tables = [_round_indices(dataset, spec, gamma, rng) for dataset, rng in zip(datasets, rngs)]
    seen = [dataset.ys[table] for dataset, table in zip(datasets, tables)]
    batches = np.stack([dataset.xs[table] for dataset, table in zip(datasets, tables)], axis=1)
    labels = np.stack(seen, axis=1)
    local = net.replicas(len(datasets))
    accumulated: Gradients | None = None
    for step in range(gamma):
        logits, cache = local.forward(batches[step])
        grads = local.backward(cache, output_gradient(logits, labels[step]))
        accumulated = grads if accumulated is None else accumulated.add_(grads)
        if step < gamma - 1:  # a step after the last gradient is never read
            local.sgd_step(grads, eta)
    return [(RoundUpdate(accumulated.like(row), gamma * spec.size),
             LabelMultiset.from_labels(client_labels.ravel(), net.n_classes))
            for row, client_labels in zip(accumulated.vector, seen)]


def server_aggregate(updates: list[RoundUpdate], global_net: Network, eta: float) -> Network:
    """Apply one global step using the sample-count-weighted mean gradient."""
    if not updates:
        raise ValueError("cannot aggregate an empty round")
    total = sum(u.sample_count for u in updates)
    mean = updates[0].gradients.scaled(updates[0].sample_count / total)
    for update in updates[1:]:
        mean.add_(update.gradients.scaled(update.sample_count / total))
    return global_net.sgd_step(mean, eta)


def select_clients(n_clients: int, per_round: int, rng: np.random.Generator) -> list[int]:
    """Client 0, the victim, plus per_round - 1 of the others drawn uniformly
    without replacement; the victim always participates so its update can be
    observed every round."""
    if not 1 <= per_round <= n_clients:
        raise ValueError("per_round must be in [1, n_clients]")
    others = np.arange(1, n_clients)
    chosen = rng.choice(others, size=per_round - 1, replace=False) if per_round > 1 else []
    return [0] + sorted(int(c) for c in chosen)

