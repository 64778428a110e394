"""Federated training protocol: batch construction, FedSGD/FedAvg client
updates, client selection, and server-side weighted aggregation.

A client's shared object for one round is a RoundUpdate: the full parameter
gradient (one batch under FedSGD, the sum over gamma local steps under
FedAvg) plus the number of samples that produced it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .data import ClientDataset
from .labels import LabelMultiset, whole_numbers
from .nn import Gradients, LastLayerGradient, Network, output_gradient

VALID_BATCH_SIZES = tuple(2 ** k for k in range(8))
BALANCES = ("balanced", "unbalanced")


@dataclass(frozen=True)
class BatchSpec:
    """Batch size and label-composition mode for client batches.

    Unbalanced batches take floor(B/2) samples of a dominant label, floor(B/4)
    of a second label, and the remainder uniformly at random; balanced batches
    are drawn uniformly from the dataset. make_batch draws the (dominant,
    secondary) pair for every batch.
    """

    size: int
    balance: str = "unbalanced"

    def __post_init__(self):
        object.__setattr__(self, "size", int(whole_numbers(self.size, "batch size")))
        if self.size not in VALID_BATCH_SIZES:
            raise ValueError(f"batch size must be a power of two in [1, 128], got "
                             f"{self.size}; the batch sizes are the powers of two "
                             f"{VALID_BATCH_SIZES}")
        if self.balance not in BALANCES:
            raise ValueError(f"balance must be {' or '.join(map(repr, BALANCES))}, "
                             f"got {self.balance!r}")


@functools.cache
def _choice_highs(n: int, count: int) -> np.ndarray:
    """The exclusive high of each draw that rng.choice(n, count,
    replace=count > n) makes, in order, as a read-only array.

    numpy makes these draws, and those of rng.integers(0, highs) for an
    array of highs, one at a time through one bounded-draw routine. So
    rng.integers(0, highs) makes the same draws in one call and leaves the
    generator in the same state; a high of 1 draws nothing.

    With replacement that is count draws in [0, n). Without, numpy runs
    Floyd's algorithm, one draw in [0, j] for j = n - count ... n - 1, then
    shuffles its picks with one draw in [0, i] for i = count - 1 ... 1. Its
    other path, a tail shuffle, needs n > 10,000 and count > n // 50, which
    no count up to 64 (half of the largest batch) meets.
    """
    if count > n:
        highs = np.full(count, n, dtype=np.int64)
    else:
        highs = np.concatenate([np.arange(n - count + 1, n + 1), np.arange(count, 1, -1)])
    highs.setflags(write=False)
    return highs


def _choice_picks(n: int, count: int, draws) -> list[int]:
    """rng.choice(n, count, replace=count > n) from its draws: takes the
    len(_choice_highs(n, count)) draws it needs from the iterator draws and
    applies Floyd's repeat rule (a value drawn before is replaced by j) and
    the shuffle's swaps to them."""
    picks = list(itertools.islice(draws, count))
    if count > n:
        return picks
    seen: set[int] = set()
    for pos, value in enumerate(picks):
        if value in seen:
            picks[pos] = value = n - count + pos
        seen.add(value)
    for i, k in zip(range(count - 1, 0, -1), draws):
        picks[i], picks[k] = picks[k], picks[i]
    return picks


@functools.cache
def _step_highs(dominant: int, secondary: int, rows: int, size: int, others: int) -> np.ndarray:
    """The exclusive highs of one unbalanced step's draws, in order: the
    choices from the dominant and the secondary pool (of those sizes), the
    free rows out of all rows, then, when others > 0, the next step's
    secondary label out of others."""
    n_dom, n_sec = size // 2, size // 4
    highs = np.concatenate([_choice_highs(dominant, n_dom), _choice_highs(secondary, n_sec),
                            np.full(size - n_dom - n_sec, rows),
                            np.full(1 if others else 0, others)])
    highs.setflags(write=False)
    return highs


def _round_indices(dataset: ClientDataset, spec: BatchSpec, gamma: int,
                   rng: np.random.Generator) -> np.ndarray:
    """One client's (gamma, B) row indices for a FedAvg round; gamma=1 is
    make_batch's draw.

    The round keeps one dominant label (the client's data skew); the
    secondary is redrawn per batch. A balanced round is one generator call;
    an unbalanced one is one for the pair, then one per step, which also
    draws the next step's secondary.
    """
    size = spec.size
    if spec.balance == "balanced":
        return rng.integers(0, len(dataset), size=(gamma, size))
    present = dataset.present_labels
    if len(present) < 2:
        raise ValueError("unbalanced batches need >= 2 distinct labels in the dataset")
    draws = iter(rng.integers(0, _choice_highs(len(present), 2)).tolist())
    dominant, secondary = present[_choice_picks(len(present), 2, draws)]
    others = present[present != dominant]
    n_dom, n_sec = size // 2, size // 4
    pool = dataset.class_indices(dominant)
    table = np.empty((gamma, size), dtype=np.int64)
    for step in range(gamma):
        second = dataset.class_indices(secondary)
        more = len(others) if step < gamma - 1 else 0
        draws = iter(rng.integers(0, _step_highs(len(pool), len(second), len(dataset),
                                                 size, more)).tolist())
        row = table[step]
        row[:n_dom] = pool[_choice_picks(len(pool), n_dom, draws)]
        row[n_dom:n_dom + n_sec] = second[_choice_picks(len(second), n_sec, draws)]
        row[n_dom + n_sec:] = list(itertools.islice(draws, size - n_dom - n_sec))
        if more:
            secondary = others[next(draws)]  # rng.choice(others)
    return table


def make_batch(dataset: ClientDataset, spec: BatchSpec,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one batch, a round of one step; returns (features, labels) with
    labels in [1, n]."""
    idx = _round_indices(dataset, spec, 1, rng)[0]
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

    Client c draws its whole round of gamma batches from datasets[c] with
    rngs[c] alone, before any training. So
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
    batches = np.stack([dataset.xs[table] for dataset, table in zip(datasets, tables)], axis=1)
    labels = np.stack([dataset.ys[table] for dataset, table in zip(datasets, tables)], axis=1)
    local = net.replicas(len(datasets))
    accumulated: Gradients | None = None
    for step in range(gamma):
        logits, cache = local.forward(batches[step])
        grads = local.backward(cache, output_gradient(logits, labels[step]))
        accumulated = grads if accumulated is None else accumulated.add_(grads)
        if step < gamma - 1:  # a step after the last gradient is never read
            local.sgd_step(grads, eta)
    # every client's truth in one count, client c's labels offset by c * n;
    # output_gradient has checked every label against n
    n, clients = net.n_classes, len(datasets)
    offset = labels - 1 + n * np.arange(clients)[:, None]
    truths = np.bincount(offset.ravel(), minlength=clients * n).reshape(clients, n)
    return [(RoundUpdate(accumulated.like(row), gamma * spec.size), LabelMultiset(counts))
            for row, counts in zip(accumulated.vector, truths)]


def server_aggregate(updates: list[RoundUpdate], global_net: Network, eta: float) -> Network:
    """Apply one global step using the sample-count-weighted mean gradient."""
    if not updates:
        raise ValueError("cannot aggregate an empty round")
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    vectors = np.stack([u.gradients.vector for u in updates])
    mean = (counts / counts.sum()) @ vectors
    return global_net.sgd_step(updates[0].gradients.like(mean), eta)


def select_clients(n_clients: int, per_round: int, rng: np.random.Generator) -> list[int]:
    """Client 0, the victim, plus per_round - 1 of the others drawn uniformly
    without replacement; the victim always participates so its update can be
    observed every round."""
    if not 1 <= per_round <= n_clients:
        raise ValueError("per_round must be in [1, n_clients]")
    others = np.arange(1, n_clients)
    chosen = rng.choice(others, size=per_round - 1, replace=False) if per_round > 1 else []
    return [0] + sorted(int(c) for c in chosen)

