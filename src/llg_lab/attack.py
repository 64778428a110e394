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
from .labels import LabelMultiset, whole_numbers
from .nn import LastLayerGradient, Network, softmax_residual

DUMMY_KINDS = ("zeros", "ones", "uniform_random")
OFFSET_BATCH_SIZES = (2, 8, 32)
IMPACT_BATCHES = 10


@dataclass(frozen=True)
class AttackParams:
    """Impact and per-class offsets. Extraction takes |D| from the shared
    gradient itself."""

    impact: float
    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.float64))
        if not np.isfinite(self.impact):
            raise ValueError("impact must be finite")
        if not np.all(np.isfinite(self.offsets)):
            raise ValueError("offsets must be finite")


def estimate_impact_shared(last: LastLayerGradient) -> float:
    """Impact from the shared gradient alone: the mean of the negative
    per-class sums over |D|, scaled up by (1 + 1/n), n = last.n_classes, to
    correct for the positive entries the offsets hide. With no negative sum
    to estimate from, the impact is -1/|D|."""
    negative = last.g[last.g < 0]
    if negative.size == 0:
        return -1.0 / last.sample_count
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
    rows = softmax_residual(logits, labels) * penultimate.sum(axis=1)[:, None]
    if not np.all(np.isfinite(rows)):
        raise ValueError("probe gradient row sums contain non-finite values")
    return rows


def _class_means(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The (n, n) mean rows of rows sorted by label, counts[l − 1] rows of
    label l: row l − 1 is label l's mean. Every count is at least one, so
    each label's rows are one reduceat segment."""
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return np.add.reduceat(rows, starts, axis=0) / counts[:, None]


def _params(means: np.ndarray, batch_size: int) -> AttackParams:
    """Impact and offsets from the (n, n) per-label mean rows of single-label
    probes, row l − 1 for label l. A probe of B samples labelled l moves g[l]
    by about B impacts, so the impact sums the own-label entries times
    (1 + 1/n)/(n·B). A probe of label j shows the offset of every class
    i != j, so offset i averages column i over the n − 1 other labels."""
    n = len(means)
    impact = float(means.diagonal().sum() * (1.0 + 1.0 / n) / (n * batch_size))
    offsets = np.where(np.eye(n, dtype=bool), 0.0, means).sum(axis=0) / (n - 1)
    return AttackParams(impact, offsets)


def estimate_params_whitebox(net: Network, batch_size: int, dummy_kind: str = "zeros",
                             rng: np.random.Generator | None = None) -> AttackParams:
    """Estimate impact and offsets by probing the model with dummy data:
    LLG+'s estimator over a labelled dummy set, label-major, in one forward
    pass. zeros and ones are one row per label, since every probe of a
    label is the same input. uniform_random draws the paper's per-label
    budget, IMPACT_BATCHES probes of B plus one of each OFFSET_BATCH_SIZES,
    and pools it: a probe mean has the same expectation whatever its size."""
    if dummy_kind not in DUMMY_KINDS:
        raise ValueError(f"unknown dummy kind {dummy_kind!r}; use one of {DUMMY_KINDS}")
    n = net.n_classes
    input_dim = int(np.prod(net.input_shape))
    if dummy_kind == "uniform_random":
        if rng is None:
            raise ValueError("uniform_random dummies need a random generator")
        per_label = IMPACT_BATCHES * batch_size + sum(OFFSET_BATCH_SIZES)
        dummies = rng.random((n * per_label, input_dim))
    else:
        per_label = 1
        dummies = np.full((n, input_dim), 0.0 if dummy_kind == "zeros" else 1.0)
    logits, penultimate = net.infer(dummies)
    rows = gradient_row_sums(logits, penultimate,
                             np.repeat(np.arange(1, n + 1), per_label))
    return _params(_class_means(rows, np.full(n, per_label)), batch_size)


def estimate_params_auxiliary(logits: np.ndarray, penultimate: np.ndarray,
                              aux: ClientDataset, batch_size: int) -> AttackParams:
    """Estimate impact and offsets from real samples of an auxiliary dataset
    covering every class, given the model's forward pass over aux.xs.

    The paper averages the rows of sampled single-label probe batches.
    _params is linear in the probe means, and a probe mean's expectation,
    drawn with or without replacement, is its class's mean row; so this is
    the expected estimate, _params of the (n, n) class mean rows. Nothing
    is drawn.
    """
    if np.ndim(logits) != 2:
        raise ValueError(f"logits must be (B, n), got shape {np.shape(logits)}")
    if len(penultimate) != len(logits):
        raise ValueError(f"{len(logits)} logit rows but {len(penultimate)} penultimate rows")
    if len(logits) != len(aux):
        raise ValueError(f"{len(logits)} forward rows for {len(aux)} auxiliary samples")
    n = logits.shape[1]
    pools = [aux.class_indices(label) for label in range(1, n + 1)]
    for label, pool in enumerate(pools, start=1):
        if len(pool) == 0:
            raise ValueError(f"auxiliary dataset has no samples of class {label}")
    rows = gradient_row_sums(logits, penultimate, aux.ys)
    counts = np.array([len(pool) for pool in pools])
    return _params(_class_means(rows[np.concatenate(pools)], counts), batch_size)


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
    sample_count = int(whole_numbers(sample_count, "sample_count"))
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    labels = rng.integers(1, n_classes + 1, size=sample_count)
    return LabelMultiset.from_labels(labels, n_classes)
