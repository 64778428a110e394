"""Label extraction from shared last-layer gradients.

The per-class gradient sums g carry two exploitable signals: a negative g[i]
proves label i appeared in the client's data, and the size of g[i] tracks
how often it appeared. Extraction needs two parameters:

* impact: the (negative, label-agnostic) change in g[i] caused by one
  occurrence of label i, and
* offsets: the (label-specific, positive) shift in g[i] caused by
  misclassification mass the model assigns to class i.

Three estimation routes match three adversary capability levels: shared
gradients only ("llg"), a white-box model copy probed with dummy inputs
("llg_star"), and a white-box copy plus auxiliary real data ("llg_plus").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ClientDataset
from .labels import LabelMultiset
from .nn import LastLayerGradient, Network, output_gradient

DUMMY_KINDS = ("zeros", "ones", "uniform_random")
OFFSET_BATCH_SIZES = (2, 8, 32)
IMPACT_BATCHES = 10


class NoNegativeGradients(ValueError):
    """No class gradient sum is negative, so the impact cannot be estimated
    from the shared gradients alone."""


@dataclass(frozen=True)
class AttackParams:
    """Impact, per-class offsets, and the sample count |D| they apply to."""

    impact: float
    offsets: np.ndarray
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.float64))
        if not np.isfinite(self.impact):
            raise ValueError("impact must be finite")
        if not np.all(np.isfinite(self.offsets)):
            raise ValueError("offsets must be finite")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


def uniform_params(n_classes: int, sample_count: int) -> AttackParams:
    """Fallback parameters (impact -1/|D|, zero offsets) used when no
    negative gradient is available to estimate from."""
    return AttackParams(-1.0 / sample_count, np.zeros(n_classes), sample_count)


def estimate_impact_shared(last: LastLayerGradient, n_classes: int) -> float:
    """Impact from the shared gradient alone: the mean of the negative
    per-class sums over |D|, scaled up by (1 + 1/n) to correct for the
    positive entries the offsets hide."""
    negative = last.g[last.g < 0]
    if negative.size == 0:
        raise NoNegativeGradients("all per-class gradient sums are non-negative")
    return float(negative.sum() * (1.0 + 1.0 / n_classes) / last.sample_count)


def gradient_row_sums(net: Network, batch: np.ndarray, labels) -> np.ndarray:
    """Per-class sums of the last-layer weight gradient for one probe batch.

    The head weight gradient is dyᵀ·a, with dy the output gradient and a the
    penultimate activations the forward pass cached, so only the forward
    pass runs. The product is the same expression on the same arrays as
    `Dense.backward` evaluates for the head inside `Network.backward`, so
    the row sums match that full backward pass bit for bit.

    Probing never mutates the model, so repeated probes observe the same
    parameter state.
    """
    logits, cache = net.forward(batch)
    dy = output_gradient(logits, labels)
    g = (dy.T @ cache.penultimate).sum(axis=1)
    if not np.all(np.isfinite(g)):
        raise ValueError("probe gradient row sums contain non-finite values")
    return g


def _dummy_batch(kind: str, batch_size: int, input_dim: int,
                 rng: np.random.Generator) -> np.ndarray:
    if kind == "zeros":
        return np.zeros((batch_size, input_dim))
    if kind == "ones":
        return np.ones((batch_size, input_dim))
    if kind == "uniform_random":
        return rng.random((batch_size, input_dim))
    raise ValueError(f"unknown dummy kind {kind!r}; use one of {DUMMY_KINDS}")


def _estimate_offsets(net: Network, batch_for_label) -> np.ndarray:
    """Offsets from probe batches filled with a single label each.

    A batch full of label j exposes the misclassification shift on every
    other class i != j, so each (label, size) probe contributes one
    observation per off-class; the offset is the mean of those observations.
    """
    n = net.n_classes
    sums = np.zeros(n)
    counts = np.zeros(n)
    for size in OFFSET_BATCH_SIZES:
        for j in range(1, n + 1):
            g = gradient_row_sums(net, batch_for_label(j, size), np.full(size, j))
            mask = np.arange(n) != j - 1
            sums[mask] += g[mask]
            counts[mask] += 1
    return sums / counts


def _estimate_impact_probed(net: Network, batch_for_label, batch_size: int,
                            probes_per_label: int) -> float:
    """Impact from single-label probe batches: a batch of B samples all
    labeled i moves g[i] by roughly B impacts, so the per-class means are
    averaged over n * B with the same (1 + 1/n) correction."""
    n = net.n_classes
    gbar = np.zeros(n)
    for label in range(1, n + 1):
        observed = [
            gradient_row_sums(net, batch_for_label(label, batch_size),
                              np.full(batch_size, label))[label - 1]
            for _ in range(probes_per_label)
        ]
        gbar[label - 1] = np.mean(observed)
    return float(gbar.sum() * (1.0 + 1.0 / n) / (n * batch_size))


def estimate_params_whitebox(net: Network, batch_size: int, sample_count: int,
                             dummy_kind: str = "zeros",
                             rng: np.random.Generator | None = None) -> AttackParams:
    """Estimate impact and offsets by probing the model with dummy data."""
    if dummy_kind not in DUMMY_KINDS:
        raise ValueError(f"unknown dummy kind {dummy_kind!r}; use one of {DUMMY_KINDS}")
    rng = rng if rng is not None else np.random.default_rng(0)
    input_dim = int(np.prod(net.input_shape))

    def batch_for_label(_label: int, size: int) -> np.ndarray:
        return _dummy_batch(dummy_kind, size, input_dim, rng)

    # deterministic dummies make repeated batches identical
    probes = IMPACT_BATCHES if dummy_kind == "uniform_random" else 1
    impact = _estimate_impact_probed(net, batch_for_label, batch_size, probes)
    offsets = _estimate_offsets(net, batch_for_label)
    return AttackParams(impact, offsets, sample_count)


def estimate_params_auxiliary(net: Network, aux: ClientDataset, batch_size: int,
                              sample_count: int, rng: np.random.Generator) -> AttackParams:
    """Estimate impact and offsets by probing the model with real samples
    drawn from an auxiliary dataset covering every class."""
    for label in range(1, net.n_classes + 1):
        if len(aux.class_indices(label)) == 0:
            raise ValueError(f"auxiliary dataset has no samples of class {label}")

    def batch_for_label(label: int, size: int) -> np.ndarray:
        pool = aux.class_indices(label)
        idx = rng.choice(pool, size=size, replace=size > len(pool))
        return aux.xs[idx]

    impact = _estimate_impact_probed(net, batch_for_label, batch_size, IMPACT_BATCHES)
    offsets = _estimate_offsets(net, batch_for_label)
    return AttackParams(impact, offsets, sample_count)


def llg_extract(last: LastLayerGradient, params: AttackParams) -> LabelMultiset:
    """Three-step extraction of exactly |D| labels from the per-class sums.

    1. Every negative g[i] is provably present: extract it and subtract the
       impact to account for that occurrence.
    2. Subtract the offsets to calibrate the remaining values.
    3. Repeatedly extract the minimum entry (subtracting the impact each
       time) until |D| labels are out. Ties go to the lowest label index.
    """
    g = np.array(last.g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient sums contain non-finite values")
    n = g.size
    if params.offsets.shape != (n,):
        raise ValueError(f"expected {n} offsets, got shape {params.offsets.shape}")
    if params.sample_count != last.sample_count:
        raise ValueError(
            f"params were estimated for |D|={params.sample_count} "
            f"but the gradient came from |D|={last.sample_count}"
        )
    target = last.sample_count
    counts = np.zeros(n, dtype=np.int64)
    extracted = 0
    for i in range(n):
        if extracted >= target:
            # only reachable on obfuscated gradients with spurious negatives
            break
        if g[i] < 0:
            counts[i] += 1
            g[i] -= params.impact
            extracted += 1
    g -= params.offsets
    while extracted < target:
        i = int(np.argmin(g))
        counts[i] += 1
        g[i] -= params.impact
        extracted += 1
    return LabelMultiset(counts)


def random_guess(n_classes: int, sample_count: int,
                 rng: np.random.Generator) -> LabelMultiset:
    """Baseline: |D| labels drawn uniformly from [1, n]."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    labels = rng.integers(1, n_classes + 1, size=sample_count)
    return LabelMultiset.from_labels(labels, n_classes)
