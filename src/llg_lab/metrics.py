"""Attack-quality and model-quality measurement."""

from __future__ import annotations

import numpy as np

from .labels import LabelMultiset, integer_labels


def attack_success_rate(extracted: LabelMultiset, truth: LabelMultiset) -> float:
    """Multiset overlap between extraction and ground truth, over |D|."""
    if extracted.n_classes != truth.n_classes:
        raise ValueError("multisets cover different class ranges")
    if extracted.total != truth.total or truth.total == 0:
        raise ValueError(
            f"multiset totals must match and be positive "
            f"(got {extracted.total} vs {truth.total})"
        )
    overlap = np.minimum(extracted.counts, truth.counts).sum()
    return float(overlap / truth.total)


def hellinger(p: LabelMultiset, q: LabelMultiset) -> float:
    """Hellinger distance between the two normalized label distributions."""
    if p.n_classes != q.n_classes:
        raise ValueError("multisets cover different class ranges")
    diff = np.sqrt(p.distribution()) - np.sqrt(q.distribution())
    return float(min(1.0, np.linalg.norm(diff) / np.sqrt(2.0)))


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("need two equal-length 1-D sequences with >= 2 points")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float((xc * xc).sum())
    sy = float((yc * yc).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined for zero-variance input")
    return float((xc * yc).sum() / np.sqrt(sx * sy))


def test_accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of rows of the (B, n) logits whose argmax matches the label."""
    if len(labels) == 0:
        raise ValueError("test set must be non-empty")
    if np.ndim(logits) != 2 or len(logits) != len(labels):
        raise ValueError(f"expected logits of shape ({len(labels)}, n), got {np.shape(logits)}")
    labels = integer_labels(labels, logits.shape[1])
    return int((logits.argmax(axis=1) + 1 == labels).sum()) / len(labels)
