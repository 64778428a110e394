"""Dataset tests: synthetic generation determinism and separability, and
client partitioning."""

import numpy as np
import pytest

from llg_lab.data import ClientDataset, SyntheticSpec, partition_clients, synth_generate


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
        {"cluster_spread": -0.1}, {"cluster_spread": float("nan")},
        {"cluster_spread": float("inf")},
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


class TestClientDataset:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClientDataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2)

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

