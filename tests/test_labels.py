"""Label input checks shared by every entry point that reads labels: a
boolean, non-finite or fractional label is rejected, never truncated, and
so is a label outside the class range. Label counts, sample counts and
batch sizes take the same whole-number check, and a value of any dtype but
boolean, integer or float is rejected by its dtype."""

import re

import numpy as np
import pytest

from llg_lab.attack import AttackParams, gradient_row_sums, llg_extract, random_guess
from llg_lab.data import ClientDataset
from llg_lab.fl import BatchSpec
from llg_lab.labels import LabelMultiset, integer_labels
from llg_lab.metrics import test_accuracy as accuracy_on
from llg_lab.nn import LastLayerGradient, output_gradient

# every entry point reads labels of the class range [1, 3]
ENTRY_POINTS = {
    "LabelMultiset.from_labels": lambda labels: LabelMultiset.from_labels(labels, 3).counts,
    "ClientDataset": lambda labels: ClientDataset(np.zeros((len(labels), 2)), labels, 3).ys,
    "output_gradient": lambda labels: output_gradient(np.zeros((len(labels), 3)), labels),
    "gradient_row_sums": lambda labels: gradient_row_sums(
        np.zeros((len(labels), 3)), np.ones((len(labels), 2)), labels),
    "test_accuracy": lambda labels: accuracy_on(np.zeros((len(labels), 3)), labels),
}
LABEL_ARRAYS = ("LabelMultiset.from_labels", "ClientDataset")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("labels, message", [
    ([1.9, 2.2], r"label 1\.9 at index 0 is fractional"),
    ([1, 2.5], r"label 2\.5 at index 1 is fractional"),
    (np.array([2.0, 1.5], dtype=np.float32), r"label 1\.5 at index 1 is fractional"),
    ([True, True], "label True at index 0 is boolean"),
    (np.array([False, True]), "label False at index 0 is boolean"),
    ([1.0, np.nan], "label nan at index 1 is not finite"),
    ([np.inf, 2.0], "label inf at index 0 is not finite"),
], ids=["fractional", "one-fractional", "float32", "bools", "bool-array", "nan", "inf"])
def test_a_non_integer_label_is_named(entry, labels, message):
    with pytest.raises(ValueError, match="labels must be integers; " + message):
        ENTRY_POINTS[entry](labels)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("labels", [[0, 1], [2, -1], [1, 4]], ids=["0", "-1", "n+1"])
def test_a_label_outside_the_class_range_is_rejected(entry, labels):
    with pytest.raises(ValueError, match=r"labels must lie in \[1, 3\]"):
        ENTRY_POINTS[entry](labels)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_whole_numbers_load_as_the_integers(entry):
    whole = ENTRY_POINTS[entry]([3.0, 1.0, 1.0])
    assert np.asarray(whole).dtype == (np.int64 if entry in LABEL_ARRAYS else np.float64)
    for same in ([3, 1, 1], np.array([3, 1, 1], dtype=np.uint8),
                 np.array([3.0, 1.0, 1.0], dtype=np.float32)):
        assert np.array_equal(ENTRY_POINTS[entry](same), whole)


def test_a_stacked_label_is_named_by_its_position():
    with pytest.raises(ValueError, match=r"label 2\.5 at index \(1, 0\) is fractional"):
        output_gradient(np.zeros((2, 2, 3)), [[1, 2], [2.5, 3]])


# label counts and sample counts take the same whole-number check as labels
COUNTS = {
    "LabelMultiset": lambda value: LabelMultiset([value, value]).counts[0],
    "LastLayerGradient": lambda value: LastLayerGradient(np.ones((3, 2)), value).sample_count,
}


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("value, why", [
    (1.9, "fractional"), (3.7, "fractional"), (0.2, "fractional"),
    (True, "boolean"), (np.nan, "not finite"), (np.inf, "not finite"),
], ids=["1.9", "3.7", "0.2", "True", "nan", "inf"])
def test_a_non_integer_count_is_rejected_not_truncated(entry, value, why):
    with pytest.raises(ValueError, match=f"must be (an integer|integers); .*is {why}"):
        COUNTS[entry](value)


def test_a_count_is_named_by_its_position():
    with pytest.raises(ValueError, match=r"counts must be integers; count 0\.5 at index 2 "
                                         r"is fractional"):
        LabelMultiset([2, 0, 0.5])


@pytest.mark.parametrize("entry", COUNTS)
@pytest.mark.parametrize("value", [2.0, np.float32(2.0), 2, np.int32(2), np.uint8(2)],
                         ids=["float", "float32", "int", "int32", "uint8"])
def test_a_whole_count_loads_as_the_integer(entry, value):
    count = COUNTS[entry](value)
    assert count == 2 and isinstance(count, (int, np.int64))


def test_extraction_returns_as_many_labels_as_the_whole_sample_count():
    last = LastLayerGradient(np.array([[-1.0, -1.0], [0.5, 0.5], [0.25, 0.25]]), 4.0)
    assert last.sample_count == 4
    assert llg_extract(last, AttackParams(-0.25, np.zeros(3))).total == 4


# a whole float of magnitude 2**63 or more would wrap in the int64 cast
INT64_ENTRIES = {
    "LabelMultiset": lambda value: LabelMultiset([value, 1.0]).counts[0],
    "LastLayerGradient": lambda value: LastLayerGradient(np.ones((3, 2)), value).sample_count,
    "integer_labels": lambda value: integer_labels([value], 2**62)[0],
}


@pytest.mark.parametrize("entry", INT64_ENTRIES)
@pytest.mark.parametrize("value", [2.0**63, -(2.0**63), 1e19, 1e20, 1e300, 2**63],
                         ids=["2**63", "-2**63", "1e19", "1e20", "1e300", "int-2**63"])
def test_a_whole_number_beyond_int64_is_out_of_range(entry, value):
    with pytest.raises(ValueError, match="is out of range"):
        INT64_ENTRIES[entry](value)


@pytest.mark.parametrize("entry", INT64_ENTRIES)
def test_a_whole_number_below_2_to_the_63_loads(entry):
    assert INT64_ENTRIES[entry](2.0**62) == 2**62


# sizes take the whole-number check: a whole float loads as the int
SIZES = {
    "BatchSpec": lambda size: BatchSpec(size).size,
    "random_guess": lambda size: random_guess(10, size, np.random.default_rng(0)).total,
}


@pytest.mark.parametrize("entry", SIZES)
@pytest.mark.parametrize("size, why", [
    (8.0, None), (np.float32(8.0), None), (2.5, "fractional"), (True, "boolean"),
    (np.nan, "not finite"), (np.inf, "not finite"),
], ids=["8.0", "float32", "2.5", "True", "nan", "inf"])
def test_a_size_takes_the_whole_number_check(entry, size, why):
    if why is None:
        loaded = SIZES[entry](size)
        assert loaded == 8 and type(loaded) is int
    else:
        with pytest.raises(ValueError, match=re.escape(f"must be an integer; {size!r} "
                                                       f"is {why}")):
            SIZES[entry](size)


# a value of no real-number dtype is rejected by its dtype: a cast would
# parse "8" as 8 and drop an imaginary part, and an int beyond the float or
# uint64 range, or None, makes an object array that no check can read
NOT_REAL = {
    "LabelMultiset": (lambda value: LabelMultiset([value, 1]), "counts must be real numbers"),
    "integer_labels": (lambda value: integer_labels([value, 1], 3),
                       "labels must be real numbers"),
    "LastLayerGradient": (lambda value: LastLayerGradient(np.ones((3, 2)), value),
                          "sample_count must be a real number"),
    "BatchSpec": (lambda value: BatchSpec(value), "batch size must be a real number"),
}


@pytest.mark.parametrize("entry", NOT_REAL)
@pytest.mark.parametrize("value, dtype", [
    (10**400, "object"), (2**64, "object"), (None, "object"), ("8", "<U"),
    (1 + 0j, "complex128"),
], ids=["10**400", "2**64", "None", "string", "complex"])
def test_a_value_of_no_real_dtype_is_named_by_its_dtype(entry, value, dtype):
    load, role = NOT_REAL[entry]
    with pytest.raises(ValueError, match=re.escape(f"{role}; got dtype {dtype}")):
        load(value)
