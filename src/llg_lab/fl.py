"""Federated training protocol: batch construction, FedSGD/FedAvg client
updates, client selection, and server-side weighted aggregation.

A client's shared object for one round is a RoundUpdate: the full parameter
gradient (one batch under FedSGD, the sum over gamma local steps under
FedAvg) plus the number of samples that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import ClientDataset
from .labels import LabelMultiset
from .nn import Gradients, LastLayerGradient, Network, output_gradient

VALID_BATCH_SIZES = tuple(2 ** k for k in range(8))


@dataclass(frozen=True)
class BatchSpec:
    """Batch size and label-composition mode for client batches.

    Unbalanced batches take floor(B/2) samples of a dominant label, floor(B/4)
    of a second label, and the remainder uniformly at random; balanced batches
    are drawn uniformly from the dataset. The dominant/secondary labels are
    redrawn for every batch unless pinned (FedAvg pins the dominant label for
    a whole round so the client's local data keeps a consistent skew, while
    redrawing the secondary per batch).
    """

    size: int
    balance: str = "unbalanced"
    dominant: int | None = None
    secondary: int | None = None

    def __post_init__(self):
        if self.size not in VALID_BATCH_SIZES:
            raise ValueError(
                f"batch size must be a power of two in [1, 128], got {self.size}"
            )
        if self.balance not in ("balanced", "unbalanced"):
            raise ValueError(f"balance must be 'balanced' or 'unbalanced', got {self.balance!r}")
        if (self.dominant is None) != (self.secondary is None):
            raise ValueError("pin both dominant and secondary labels or neither")
        if self.dominant is not None and self.dominant == self.secondary:
            raise ValueError("dominant and secondary labels must differ")


def _draw_from(indices: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # fall back to replacement only when the class pool is too small
    replace = count > len(indices)
    return rng.choice(indices, size=count, replace=replace)


def make_batch(dataset: ClientDataset, spec: BatchSpec,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one batch; returns (features, labels) with labels in [1, n]."""
    if spec.balance == "balanced":
        idx = rng.integers(0, len(dataset), size=spec.size)
    else:
        present = np.unique(dataset.ys)
        if len(present) < 2:
            raise ValueError("unbalanced batches need >= 2 distinct labels in the dataset")
        if spec.dominant is not None:
            dominant, secondary = spec.dominant, spec.secondary
        else:
            dominant, secondary = rng.choice(present, size=2, replace=False)
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


def local_train_fedavg(net: Network, dataset: ClientDataset, spec: BatchSpec,
                       gamma: int, eta: float,
                       rng: np.random.Generator) -> tuple[RoundUpdate, LabelMultiset]:
    """Run gamma local SGD steps on a copy of the model and share the summed
    per-step gradients.

    Returns the update plus the ground-truth multiset of all labels the local
    steps consumed (gamma * B of them); the truth stays on the harness side
    and is never visible to an attack.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    pin_labels = spec.balance == "unbalanced" and spec.dominant is None
    if pin_labels:
        present = np.unique(dataset.ys)
        if len(present) < 2:
            raise ValueError("unbalanced batches need >= 2 distinct labels in the dataset")
        # the round keeps one dominant label (the client's data skew); the
        # secondary is redrawn per batch. The first pair is drawn exactly
        # like make_batch would, so gamma=1 stays bit-identical to FedSGD.
        dominant, secondary = rng.choice(present, size=2, replace=False)
        others = present[present != dominant]
    local = net.copy()
    accumulated: Gradients | None = None
    seen = np.zeros(net.n_classes, dtype=np.int64)
    for step in range(gamma):
        batch_spec = spec
        if pin_labels:
            if step > 0:
                secondary = rng.choice(others)
            batch_spec = replace(spec, dominant=int(dominant), secondary=int(secondary))
        batch, labels = make_batch(dataset, batch_spec, rng)
        logits, cache = local.forward(batch)
        grads = local.backward(cache, output_gradient(logits, labels))
        accumulated = grads.copy() if accumulated is None else accumulated.add_(grads)
        local.sgd_step(grads, eta)
        seen += np.bincount(labels - 1, minlength=net.n_classes)
    update = RoundUpdate(accumulated, gamma * spec.size)
    return update, LabelMultiset(seen)


def server_aggregate(updates: list[RoundUpdate], global_net: Network, eta: float) -> Network:
    """Apply one global step using the sample-count-weighted mean gradient."""
    if not updates:
        raise ValueError("cannot aggregate an empty round")
    total = sum(u.sample_count for u in updates)
    mean = updates[0].gradients.scaled(updates[0].sample_count / total)
    for update in updates[1:]:
        mean.add_(update.gradients.scaled(update.sample_count / total))
    return global_net.sgd_step(mean, eta)


def select_clients(n_clients: int, per_round: int, rng: np.random.Generator,
                   victim: int = 0) -> list[int]:
    """Uniform selection without replacement; the victim always participates
    so its update can be observed every round."""
    if not 1 <= per_round <= n_clients:
        raise ValueError("per_round must be in [1, n_clients]")
    others = np.array([c for c in range(n_clients) if c != victim])
    chosen = rng.choice(others, size=per_round - 1, replace=False) if per_round > 1 else []
    return [victim] + sorted(int(c) for c in chosen)

