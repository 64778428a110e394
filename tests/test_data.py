"""Dataset tests: synthetic generation determinism and separability,
client partitioning, and IDX parsing against hand-written fixtures."""

import struct

import numpy as np
import pytest

from llg_lab.data import (
    ClientDataset,
    CountMismatchError,
    SyntheticSpec,
    TruncatedFileError,
    WrongMagicError,
    load_idx,
    partition_clients,
    synth_generate,
)


class TestSynthetic:
    def test_fixed_seed_reproduces_identical_bytes(self):
        a_train, a_test = synth_generate(SyntheticSpec(seed=42))
        b_train, b_test = synth_generate(SyntheticSpec(seed=42))
        assert a_train.xs.tobytes() == b_train.xs.tobytes()
        assert a_train.ys.tobytes() == b_train.ys.tobytes()
        assert a_test.xs.tobytes() == b_test.xs.tobytes()

    def test_zero_spread_collapses_classes_onto_anchors(self):
        train, _ = synth_generate(SyntheticSpec(
            n_classes=3, input_dim=8, samples_per_class=10, cluster_spread=0.0, seed=1
        ))
        for label in (1, 2, 3):
            xs = train.xs[train.ys == label]
            assert np.array_equal(xs, np.tile(xs[0], (len(xs), 1)))

    def test_split_is_stratified_80_20(self):
        train, test = synth_generate(SyntheticSpec(
            n_classes=4, input_dim=6, samples_per_class=50, seed=2
        ))
        for label in range(1, 5):
            assert (train.ys == label).sum() == 40
            assert (test.ys == label).sum() == 10

    def test_linear_classifier_separates_clusters(self):
        # independent oracle: least-squares one-hot regression, no engine code
        train, test = synth_generate(SyntheticSpec(
            n_classes=10, input_dim=64, samples_per_class=100,
            cluster_spread=0.3, seed=3,
        ))
        onehot = np.zeros((len(train), 10))
        onehot[np.arange(len(train)), train.ys - 1] = 1.0
        design = np.hstack([train.xs, np.ones((len(train), 1))])
        coef, *_ = np.linalg.lstsq(design, onehot, rcond=None)
        scores = np.hstack([test.xs, np.ones((len(test), 1))]) @ coef
        accuracy = float((scores.argmax(axis=1) + 1 == test.ys).mean())
        assert accuracy > 0.9

    @pytest.mark.parametrize("kwargs", [
        {"n_classes": 1}, {"samples_per_class": 0}, {"samples_per_class": 1},
        {"cluster_spread": -0.1},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)


class TestPartition:
    def test_exact_partition_is_a_permutation(self):
        train, _ = synth_generate(SyntheticSpec(
            n_classes=5, input_dim=4, samples_per_class=100, seed=4
        ))
        clients = partition_clients(train, 5, 80, np.random.default_rng(0))
        assert sum(len(c) for c in clients) == len(train)
        stacked = np.vstack([c.xs for c in clients])
        assert np.array_equal(
            np.sort(stacked.view([("", stacked.dtype)] * stacked.shape[1]), axis=0),
            np.sort(train.xs.view([("", train.xs.dtype)] * train.xs.shape[1]), axis=0),
        )

    def test_every_client_has_a_dominant_class(self):
        train, _ = synth_generate(SyntheticSpec(seed=5, samples_per_class=100))
        clients = partition_clients(train, 10, 80, np.random.default_rng(1))
        for cid, client in enumerate(clients):
            assert len(client) == 80
            dominant = cid % 10 + 1
            assert (client.ys == dominant).sum() >= 40

    def test_oversubscription_rejected(self):
        train, _ = synth_generate(SyntheticSpec(
            n_classes=2, input_dim=4, samples_per_class=10, seed=6
        ))
        with pytest.raises(ValueError, match="without duplication"):
            partition_clients(train, 3, 10, np.random.default_rng(0))

    def test_labels_stay_in_range(self):
        train, _ = synth_generate(SyntheticSpec(seed=7, samples_per_class=50))
        clients = partition_clients(train, 4, 80, np.random.default_rng(2))
        for client in clients:
            assert client.ys.min() >= 1
            assert client.ys.max() <= client.n_classes


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=False, label_count=None):
    """Independent fixture writer: raw struct packing, no loader code."""
    count, rows, cols = pixels.shape
    images_path = tmp_path / "images-idx3-ubyte"
    labels_path = tmp_path / "labels-idx1-ubyte"
    body = struct.pack(">IIII", image_magic, count, rows, cols) + pixels.tobytes()
    if truncate_images:
        body = body[:-3]
    images_path.write_bytes(body)
    labels_path.write_bytes(
        struct.pack(">II", label_magic, label_count if label_count is not None else count)
        + bytes(labels)
    )
    return images_path, labels_path


class TestIdxLoader:
    def test_round_trips_hand_written_pixels(self, tmp_path):
        pixels = np.array([
            [[0, 51], [102, 153]],
            [[255, 204], [153, 102]],
        ], dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [3, 7])
        data = load_idx(images, labels)
        assert data.xs.shape == (2, 4)
        assert np.array_equal(data.xs * 255.0, pixels.reshape(2, 4).astype(float))
        assert data.xs.min() >= 0.0 and data.xs.max() <= 1.0
        assert np.array_equal(data.ys, np.array([4, 8]))  # shifted to 1-based

    def test_wrong_image_magic_rejected(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [0], image_magic=0x801)
        with pytest.raises(WrongMagicError, match="magic"):
            load_idx(images, labels)

    def test_label_file_with_image_magic_rejected(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [0], label_magic=0x803)
        with pytest.raises(WrongMagicError, match="magic"):
            load_idx(images, labels)

    def test_truncated_image_file_rejected(self, tmp_path):
        pixels = np.zeros((2, 3, 3), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [0, 1], truncate_images=True)
        with pytest.raises(TruncatedFileError, match="expected"):
            load_idx(images, labels)

    def test_count_mismatch_rejected(self, tmp_path):
        pixels = np.zeros((2, 2, 2), dtype=np.uint8)
        images, labels = write_idx_pair(tmp_path, pixels, [0, 1, 2], label_count=3)
        with pytest.raises(CountMismatchError, match="2 images but 3 labels"):
            load_idx(images, labels)


class TestClientDataset:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClientDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            ClientDataset(np.zeros((2, 3)), np.array([1, 3]), 2)

    def test_class_indices_lookup(self):
        data = ClientDataset(np.zeros((4, 2)), np.array([2, 1, 2, 2]), 3)
        assert np.array_equal(data.class_indices(2), np.array([0, 2, 3]))
        assert data.class_indices(3).size == 0

    def test_present_labels_are_the_sorted_distinct_labels(self):
        data = ClientDataset(np.zeros((5, 2)), np.array([4, 1, 4, 2, 1]), 5)
        present = data.present_labels
        assert present.dtype == np.int64
        assert np.array_equal(present, np.unique(data.ys))
        assert present is data.present_labels
        with pytest.raises(ValueError, match="read-only"):
            present[0] = 3


def test_idx_data_feeds_an_image_model(tmp_path):
    # end-to-end: 28x28 IDX files load and drive the conv model
    from llg_lab.fl import local_train_fedsgd
    from llg_lab.nn import small_cnn
    rng = np.random.default_rng(9)
    pixels = rng.integers(0, 256, size=(12, 28, 28)).astype(np.uint8)
    labels = list(rng.integers(0, 10, size=12))
    labels[0], labels[1] = 9, 0  # force the full label range
    images_path, labels_path = write_idx_pair(tmp_path, pixels, labels)
    data = load_idx(images_path, labels_path)
    assert data.n_classes == 10
    net = small_cnn((28, 28), data.n_classes, seed=1)
    update = local_train_fedsgd(net, data.xs[:8], data.ys[:8])
    assert update.last_layer().matrix.shape == (10, 8 * 24 * 24)
