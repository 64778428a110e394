"""Label multisets: occurrence counts over the class range 1..n."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def whole_numbers(values, name: str) -> np.ndarray:
    """values as an int64 array, checked to hold whole numbers: the one
    whole-number check of labels, label counts, sample counts and batch
    sizes.

    Integer arrays load as they are and float arrays of whole numbers, such
    as 3.0, as those integers. A boolean, non-finite, fractional or out of
    range value raises ValueError naming the first one (name says what a
    value is, such as "label"): a cast would truncate 1.9 to 1, read True as
    1 and wrap 2**63 to a negative int64. Any other dtype (strings, objects,
    complex) raises ValueError naming it: a cast would parse "3" as 3.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        what = f"{name}s must be real numbers" if arr.ndim else f"{name} must be a real number"
        raise ValueError(f"{what}; got dtype {arr.dtype}")
    if arr.dtype.kind in "iu" or not arr.size:
        ints = arr.astype(np.int64, copy=False)
        # only an unsigned value of 2**63 or more turns negative
        if arr.dtype.kind != "u" or not (ints < 0).any():
            return ints
    floats = arr.astype(np.float64)
    whole = floats == np.floor(floats)
    bad = (arr.dtype.kind == "b") | ~whole | (np.abs(floats) >= 2.0**63)
    if bad.any():
        pos = int(np.argmax(bad))
        value = arr.flat[pos].item()
        why = ("boolean" if arr.dtype.kind == "b" else
               "not finite" if not np.isfinite(floats.flat[pos]) else
               "fractional" if not whole.flat[pos] else
               "out of range: its magnitude is 2**63 or more")
        if arr.ndim == 0:
            raise ValueError(f"{name} must be an integer; {value!r} is {why}")
        where = pos if arr.ndim == 1 else tuple(map(int, np.unravel_index(pos, arr.shape)))
        raise ValueError(f"{name}s must be integers; {name} {value!r} at index {where} "
                         f"is {why}")
    return floats.astype(np.int64)


def at_least_one(value, name: str) -> int:
    """value, a sample count or a batch size, as an int >= 1 (whole_numbers)."""
    value = int(whole_numbers(value, name))
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def integer_labels(labels, n_classes: int) -> np.ndarray:
    """labels as an int64 array, checked to be whole numbers (whole_numbers)
    in [1, n_classes]: the one label check of every entry point that reads
    labels. A label outside [1, n_classes] raises ValueError.
    """
    ints = whole_numbers(labels, "label")
    if ints.size and (ints.min() < 1 or ints.max() > n_classes):
        raise ValueError(f"labels must lie in [1, {n_classes}]")
    return ints


@dataclass(eq=False)
class LabelMultiset:
    """counts[i] is the number of occurrences of label i + 1."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = whole_numbers(self.counts, "count")
        if self.counts.ndim != 1 or self.counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D vector")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @classmethod
    def from_labels(cls, labels, n_classes: int) -> "LabelMultiset":
        labels = integer_labels(labels, n_classes)
        return cls(np.bincount(labels - 1, minlength=n_classes))

    @property
    def n_classes(self) -> int:
        return self.counts.size

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def distribution(self) -> np.ndarray:
        total = self.total
        if total == 0:
            raise ValueError("empty multiset has no distribution")
        return self.counts / total

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelMultiset):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)
