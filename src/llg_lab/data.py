"""Dataset provisioning: seeded synthetic Gaussian clusters and client
partitioning."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .labels import integer_labels


@dataclass
class ClientDataset:
    """Feature/label arrays held by one client; labels run 1..n_classes."""

    xs: np.ndarray
    ys: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = integer_labels(self.ys, self.n_classes)
        if len(self.xs) == 0:
            raise ValueError("dataset must be non-empty")
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys lengths differ")
        if not np.all(np.isfinite(self.xs)):
            raise ValueError("dataset features contain non-finite values")

    def __len__(self) -> int:
        return len(self.ys)

    @cached_property
    def _by_class(self) -> dict:
        return {int(lab): np.flatnonzero(self.ys == lab) for lab in np.unique(self.ys)}

    @cached_property
    def present_labels(self) -> np.ndarray:
        """The distinct labels, ascending, as a read-only int64 array (cached)."""
        present = np.fromiter(self._by_class, dtype=np.int64, count=len(self._by_class))
        present.flags.writeable = False
        return present

    def class_indices(self, label: int) -> np.ndarray:
        """Indices of samples with the given label (cached)."""
        return self._by_class.get(int(label), np.empty(0, dtype=np.int64))

    def subset(self, indices) -> "ClientDataset":
        return ClientDataset(self.xs[indices], self.ys[indices], self.n_classes)


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 10
    input_dim: int = 64
    samples_per_class: int = 500
    cluster_spread: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.samples_per_class < 2:
            raise ValueError("samples_per_class must be >= 2: each class keeps one "
                             "held-out sample and needs one more for training")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not 0 <= self.cluster_spread < np.inf:  # NaN fails too
            raise ValueError("cluster_spread must be >= 0 and finite")


def class_anchors(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """One unit-scale anchor per class; mutually orthogonal when the input
    dimension allows it."""
    gauss = rng.standard_normal((spec.input_dim, max(spec.n_classes, 1)))
    if spec.input_dim >= spec.n_classes:
        q, _ = np.linalg.qr(gauss)
        return q.T[: spec.n_classes].copy()
    rows = rng.standard_normal((spec.n_classes, spec.input_dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def synth_generate(spec: SyntheticSpec) -> tuple[ClientDataset, ClientDataset]:
    """Gaussian class clusters around per-class anchors.

    Returns (train_pool, test_set) from a stratified 80/20 split; everything
    is a pure function of spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    anchors = class_anchors(spec, rng)
    n, per_class = spec.n_classes, spec.samples_per_class
    # one fill draws what one standard_normal call per class would, in order;
    # scaling and then adding rounds each element as anchor + spread * noise
    xs = np.empty((n, per_class, spec.input_dim))
    rng.standard_normal(out=xs)
    xs *= spec.cluster_spread
    xs += anchors[:, None, :]
    xs = xs.reshape(n * per_class, spec.input_dim)
    # row c of order is class c's permutation, as the row indices of xs
    order = np.tile(np.arange(per_class), (n, 1))
    rng.permuted(order, axis=1, out=order)
    order += per_class * np.arange(n)[:, None]
    test_per_class = max(1, per_class // 5)
    train_idx = order[:, test_per_class:].ravel()
    test_idx = order[:, :test_per_class].ravel()
    train_idx = train_idx[rng.permutation(len(train_idx))]
    test_idx = test_idx[rng.permutation(len(test_idx))]
    # held-out rows first: the pool, which a convergence sweep frees before
    # its rounds, is then the last block allocated (a lower peak RSS)
    test = ClientDataset(xs[test_idx], test_idx // per_class + 1, n)
    train = ClientDataset(xs[train_idx], train_idx // per_class + 1, n)
    return train, test


def partition_clients(pool: ClientDataset, n_clients: int, samples_per_client: int,
                      rng: np.random.Generator) -> list[ClientDataset]:
    """Split a pool into per-client shards, each biased toward one class.

    Half of each client's quota comes from its dominant class (round-robin
    over classes), the rest from the remaining pool. Every pool sample is
    used at most once, so when n_clients * samples_per_client equals the pool
    size the split is an exact permutation of the pool.
    """
    need = n_clients * samples_per_client
    if need > len(pool):
        raise ValueError(
            f"cannot draw {need} samples from a pool of {len(pool)} without duplication"
        )
    # each present label's queue, in label order; a shard takes from a
    # queue's end, so the unused part of a queue is always its front
    queues = [rng.permutation(pool.class_indices(lab)) for lab in pool.present_labels]
    dominant_quota = samples_per_client // 2
    dominant_shards = []
    for cid in range(n_clients):
        dominant = cid % len(queues)
        keep = max(len(queues[dominant]) - dominant_quota, 0)
        dominant_shards.append(queues[dominant][keep:])
        queues[dominant] = queues[dominant][:keep]
    leftovers = rng.permutation(np.concatenate(queues))
    end = len(leftovers)
    shards = []
    for dominant_shard in dominant_shards:
        start = end - (samples_per_client - len(dominant_shard))
        shards.append(np.sort(np.concatenate([dominant_shard, leftovers[start:end]])))
        end = start
    return [pool.subset(shard) for shard in shards]
