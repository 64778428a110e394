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


def estimate_impact_shared(last: LastLayerGradient) -> float:
    """Impact from the shared gradient alone: the mean of the negative
    per-class sums over |D|, scaled up by (1 + 1/n), n = last.n_classes, to
    correct for the positive entries the offsets hide."""
    negative = last.g[last.g < 0]
    if negative.size == 0:
        raise NoNegativeGradients("all per-class gradient sums are non-negative")
    return float(negative.sum() * (1.0 + 1.0 / last.n_classes) / last.sample_count)


def gradient_row_sums(logits: np.ndarray, penultimate: np.ndarray, labels) -> np.ndarray:
    """Per-sample head row sums of one forward pass's (B, n) logits and (B, h)
    penultimate activations: row k is the per-class sums of the last-layer
    weight gradient that sample k alone would produce, shape (B, n).

    The head weight gradient of one sample is (p_k - e_{y_k})·a_kᵀ, with p_k
    its softmax and a_k its penultimate activations, so its row sums are
    (p_k - e_{y_k})·Σ_j a_kj and no backward pass runs. A probe batch's
    row sums are the mean of its samples' rows.
    """
    # output_gradient divides by B for the batch mean; a sample alone has B = 1
    dy = output_gradient(logits, labels) * len(logits)
    rows = dy * penultimate.sum(axis=1)[:, None]
    if not np.all(np.isfinite(rows)):
        raise ValueError("probe gradient row sums contain non-finite values")
    return rows


def _probe_means(n: int, batch_size: int, draw,
                 rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean rows of every single-label probe, in the order they are drawn:
    IMPACT_BATCHES probes of size B per label, shape (n, T, n), then one per
    (offset size, label), shape (S, n, n). draw(label, size, count) gives
    `count` consecutive probes of that label and size, each its (size, n)
    rows or, when `rows` is given, the (size,) indices of its rows in that
    table, gathered once per probe table. Each table takes one mean over the
    sample axis, which adds every probe's rows in the order its own mean
    would."""
    def table(probes) -> np.ndarray:
        drawn = np.stack([probe for label, size, count in probes
                          for probe in draw(label, size, count)])
        return drawn if rows is None else rows.take(drawn, axis=0)

    labels = range(1, n + 1)
    impact = table((label, batch_size, IMPACT_BATCHES) for label in labels)
    impact = impact.reshape(n, IMPACT_BATCHES, batch_size, n).mean(axis=2)
    offsets = np.stack([table((label, size, 1) for label in labels).mean(axis=1)
                        for size in OFFSET_BATCH_SIZES])
    return impact, offsets


def _probe_indices(pool: np.ndarray, size: int, count: int,
                   rng: np.random.Generator) -> np.ndarray | list[np.ndarray]:
    """`count` probes of `size` entries of pool, drawn as `count` calls of
    rng.choice(pool, size, replace=size > len(pool)) would draw them. With
    replacement that call gathers one rng.integers draw, and consecutive
    integers draws chain through the generator's state, so one (count, size)
    draw gives every probe; without replacement each probe keeps its own
    call."""
    if size > len(pool):
        return pool[rng.integers(0, len(pool), (count, size))]
    return [rng.choice(pool, size=size, replace=False) for _ in range(count)]


def _params(impact_means: np.ndarray, offset_means: np.ndarray, batch_size: int,
            sample_count: int) -> AttackParams:
    """A probe of B samples labelled i moves g[i] by about B impacts, so the
    impact sums each label's own entry, averaged over its probes, times
    (1 + 1/n)/(n·B). A probe of label j shows the offset of every class
    i != j: the own-label entries are zeroed and the rest summed in probe
    order, over S·(n − 1)."""
    n = offset_means.shape[-1]
    own = np.arange(n)
    gbar = impact_means[own, :, own].mean(axis=1)
    impact = float(gbar.sum() * (1.0 + 1.0 / n) / (n * batch_size))
    off_label = np.where(np.eye(n, dtype=bool), 0.0, offset_means)
    offsets = off_label.reshape(-1, n).sum(axis=0) / (len(offset_means) * (n - 1))
    return AttackParams(impact, offsets, sample_count)


def estimate_params_whitebox(net: Network, batch_size: int, sample_count: int,
                             dummy_kind: str = "zeros",
                             rng: np.random.Generator | None = None) -> AttackParams:
    """Estimate impact and offsets by probing the model with dummy data."""
    if dummy_kind not in DUMMY_KINDS:
        raise ValueError(f"unknown dummy kind {dummy_kind!r}; use one of {DUMMY_KINDS}")
    rng = rng if rng is not None else np.random.default_rng(0)
    n = net.n_classes
    input_dim = int(np.prod(net.input_shape))

    if dummy_kind == "uniform_random":
        def rows_for_label(label: int, size: int, count: int) -> list[np.ndarray]:
            # one forward per probe: stacking probes would change the GEMM bits
            forwards = (net.forward(rng.random((size, input_dim))) for _ in range(count))
            return [gradient_row_sums(logits, cache.penultimate, np.full(size, label))
                    for logits, cache in forwards]

        return _params(*_probe_means(n, batch_size, rows_for_label), batch_size, sample_count)
    # every sample of a probe is the same input, so the row labelled l is
    # the mean of every probe of label l, whatever its size
    fill = 0.0 if dummy_kind == "zeros" else 1.0
    logits, cache = net.forward(np.full((n, input_dim), fill))
    rows = gradient_row_sums(logits, cache.penultimate, np.arange(1, n + 1))
    return _params(np.broadcast_to(rows[:, None], (n, IMPACT_BATCHES, n)),
                   np.broadcast_to(rows, (len(OFFSET_BATCH_SIZES), n, n)),
                   batch_size, sample_count)


def estimate_params_auxiliary(logits: np.ndarray, penultimate: np.ndarray,
                              aux: ClientDataset, batch_size: int, sample_count: int,
                              rng: np.random.Generator) -> AttackParams:
    """Estimate impact and offsets by probing with real samples of an auxiliary
    dataset covering every class, given the model's forward pass over aux.xs."""
    if np.ndim(logits) != 2:
        raise ValueError(f"logits must be (B, n), got shape {np.shape(logits)}")
    if len(penultimate) != len(logits):
        raise ValueError(f"{len(logits)} logit rows but {len(penultimate)} penultimate rows")
    if len(logits) != len(aux):
        raise ValueError(f"{len(logits)} forward rows for {len(aux)} auxiliary samples")
    n = logits.shape[1]
    for label in range(1, n + 1):
        if len(aux.class_indices(label)) == 0:
            raise ValueError(f"auxiliary dataset has no samples of class {label}")
    rows = gradient_row_sums(logits, penultimate, aux.ys)

    def indices_for_label(label: int, size: int, count: int) -> np.ndarray | list[np.ndarray]:
        return _probe_indices(aux.class_indices(label), size, count, rng)

    return _params(*_probe_means(n, batch_size, indices_for_label, rows), batch_size,
                   sample_count)


def llg_extract(last: LastLayerGradient, params: AttackParams) -> LabelMultiset:
    """Three-step extraction of exactly |D| labels from the per-class sums.

    1. Every negative g[i] is provably present: extract it and subtract the
       impact to account for that occurrence.
    2. Subtract the offsets to calibrate the remaining values.
    3. Repeatedly extract the minimum entry (subtracting the impact each
       time) until |D| labels are out. Ties go to the lowest label index.
       This runs as one stable sort of every label's running values
       g_i, g_i - impact, ..., which makes the same picks with the same
       tie rule.
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
    # the first |D| negatives; obfuscated gradients can show more than |D|
    present = np.flatnonzero(g < 0)[:target]
    counts[present] = 1
    g[present] -= params.impact
    g -= params.offsets
    left = target - present.size
    if left and params.impact >= 0:
        # a pick never raises the minimum entry, so it takes every pick
        counts[np.argmin(g)] += left
    elif left:
        # label i's running values g_i, g_i - impact, ... (a - b is a + (-b)
        # bit for bit) never fall, so picking minima one at a time with ties
        # to the lowest label takes the first `left` of a stable label-major
        # sort
        steps = np.full((n, left), -params.impact)
        steps[:, 0] = g
        picks = np.argsort(np.add.accumulate(steps, axis=1), axis=None, kind="stable")[:left]
        counts += np.bincount(picks // left, minlength=n)
    return LabelMultiset(counts)


def random_guess(n_classes: int, sample_count: int,
                 rng: np.random.Generator) -> LabelMultiset:
    """Baseline: |D| labels drawn uniformly from [1, n]."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    labels = rng.integers(1, n_classes + 1, size=sample_count)
    return LabelMultiset.from_labels(labels, n_classes)
