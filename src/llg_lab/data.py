"""Dataset provisioning: seeded synthetic Gaussian clusters, client
partitioning, and a loader for the big-endian IDX image/label format."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Base error for malformed IDX files."""


class WrongMagicError(IdxFormatError):
    pass


class TruncatedFileError(IdxFormatError):
    pass


class CountMismatchError(IdxFormatError):
    pass


@dataclass
class ClientDataset:
    """Feature/label arrays held by one client; labels run 1..n_classes."""

    xs: np.ndarray
    ys: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.int64)
        if len(self.xs) == 0:
            raise ValueError("dataset must be non-empty")
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys lengths differ")
        if self.ys.min() < 1 or self.ys.max() > self.n_classes:
            raise ValueError(f"labels must lie in [1, {self.n_classes}]")
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
    xs = np.empty((spec.n_classes * spec.samples_per_class, spec.input_dim))
    ys = np.empty(spec.n_classes * spec.samples_per_class, dtype=np.int64)
    for c in range(spec.n_classes):
        lo = c * spec.samples_per_class
        hi = lo + spec.samples_per_class
        noise = rng.standard_normal((spec.samples_per_class, spec.input_dim))
        xs[lo:hi] = anchors[c] + spec.cluster_spread * noise
        ys[lo:hi] = c + 1
    test_per_class = max(1, spec.samples_per_class // 5)
    train_idx, test_idx = [], []
    for c in range(spec.n_classes):
        order = c * spec.samples_per_class + rng.permutation(spec.samples_per_class)
        test_idx.extend(order[:test_per_class])
        train_idx.extend(order[test_per_class:])
    train_idx = np.array(train_idx)[rng.permutation(len(train_idx))]
    test_idx = np.array(test_idx)[rng.permutation(len(test_idx))]
    train = ClientDataset(xs[train_idx], ys[train_idx], spec.n_classes)
    test = ClientDataset(xs[test_idx], ys[test_idx], spec.n_classes)
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
    queues = {
        int(lab): list(rng.permutation(pool.class_indices(lab)))
        for lab in pool.present_labels
    }
    labels_cycle = sorted(queues)
    dominant_quota = samples_per_client // 2
    assigned: list[list[int]] = []
    for cid in range(n_clients):
        dominant = labels_cycle[cid % len(labels_cycle)]
        take = min(dominant_quota, len(queues[dominant]))
        shard = [queues[dominant].pop() for _ in range(take)]
        assigned.append(shard)
    leftovers = [idx for lab in labels_cycle for idx in queues[lab]]
    leftovers = list(rng.permutation(leftovers)) if leftovers else []
    for cid in range(n_clients):
        shortfall = samples_per_client - len(assigned[cid])
        assigned[cid].extend(leftovers.pop() for _ in range(shortfall))
    return [pool.subset(np.array(sorted(shard))) for shard in assigned]


def _read_exact(handle, count: int, path) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise TruncatedFileError(
            f"{path}: expected {count} more bytes, file ended after {len(data)}"
        )
    return data


def load_idx(images_path, labels_path) -> ClientDataset:
    """Load an IDX image/label file pair.

    Pixels are scaled to [0, 1]; raw labels 0..n-1 are shifted to 1..n.
    Raises WrongMagicError, TruncatedFileError, or CountMismatchError on
    malformed input.
    """
    with open(images_path, "rb") as handle:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(handle, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise WrongMagicError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        raw = _read_exact(handle, count * rows * cols, images_path)
    with open(labels_path, "rb") as handle:
        magic, label_count = struct.unpack(">II", _read_exact(handle, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise WrongMagicError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
            )
        raw_labels = _read_exact(handle, label_count, labels_path)
    if count != label_count:
        raise CountMismatchError(f"{count} images but {label_count} labels")
    if count == 0:
        raise IdxFormatError(f"{images_path}: file contains no samples")
    xs = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols) / 255.0
    ys = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64) + 1
    return ClientDataset(xs, ys, int(ys.max()))
