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


def _draw_from(indices: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # fall back to replacement only when the class pool is too small
    replace = count > len(indices)
    return rng.choice(indices, size=count, replace=replace)


def make_batch(dataset: ClientDataset, spec: BatchSpec, rng: np.random.Generator,
               pair: tuple[int, int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw one batch; returns (features, labels) with labels in [1, n].

    An unbalanced batch takes its (dominant, secondary) labels from pair, or
    draws two distinct present labels when pair is None; a balanced batch
    takes no pair.
    """
    if spec.balance == "balanced":
        if pair is not None:
            raise ValueError("a balanced batch takes no label pair")
        idx = rng.integers(0, len(dataset), size=spec.size)
    else:
        present = dataset.present_labels
        if len(present) < 2:
            raise ValueError("unbalanced batches need >= 2 distinct labels in the dataset")
        if pair is None:
            pair = rng.choice(present, size=2, replace=False)
        dominant, secondary = pair
        if dominant == secondary:
            raise ValueError("dominant and secondary labels must differ")
        for label in pair:
            if not len(dataset.class_indices(label)):
                raise ValueError(f"pair label {int(label)} is absent from the dataset")
        n_dom = spec.size // 2
        n_sec = spec.size // 4
        n_rest = spec.size - n_dom - n_sec
        idx = np.concatenate([
            _draw_from(dataset.class_indices(dominant), n_dom, rng),
            _draw_from(dataset.class_indices(secondary), n_sec, rng),
            rng.integers(0, len(dataset), size=n_rest),
        ])
    return dataset.xs[idx], dataset.ys[idx]


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

    Client c draws from datasets[c] with rngs[c] alone. The clients train as
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
    pairs, others = [None] * len(datasets), [None] * len(datasets)
    if spec.balance == "unbalanced":
        for c, (dataset, rng) in enumerate(zip(datasets, rngs)):
            present = dataset.present_labels
            if len(present) < 2:
                raise ValueError("unbalanced batches need >= 2 distinct labels in the dataset")
            # the round keeps one dominant label (the client's data skew); the
            # secondary is redrawn per batch. The first pair is drawn exactly
            # like make_batch would, so gamma=1 is bit-identical to FedSGD.
            pairs[c] = rng.choice(present, size=2, replace=False)
            others[c] = present[present != pairs[c][0]]
    local = net.replicas(len(datasets))
    accumulated: Gradients | None = None
    labels_seen = []
    for step in range(gamma):
        batches = []
        for c, (dataset, rng) in enumerate(zip(datasets, rngs)):
            if pairs[c] is not None and step > 0:
                pairs[c] = (pairs[c][0], rng.choice(others[c]))
            batches.append(make_batch(dataset, spec, rng, pairs[c]))
        batch, labels = (np.stack(parts) for parts in zip(*batches))
        logits, cache = local.forward(batch)
        grads = local.backward(cache, output_gradient(logits, labels))
        accumulated = grads if accumulated is None else accumulated.add_(grads)
        if step < gamma - 1:  # a step after the last gradient is never read
            local.sgd_step(grads, eta)
        labels_seen.append(labels)
    seen = np.stack(labels_seen, axis=1).reshape(len(datasets), -1)
    return [(RoundUpdate(accumulated.like(row), gamma * spec.size),
             LabelMultiset.from_labels(labels, net.n_classes))
            for row, labels in zip(accumulated.vector, seen)]


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

