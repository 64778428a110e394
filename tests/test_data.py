"""Dataset tests: synthetic generation determinism and separability, and
client partitioning."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llg_lab.data import (
    ClientDataset,
    SyntheticSpec,
    class_anchors,
    partition_clients,
    synth_generate,
)


def per_class_generate(spec: SyntheticSpec) -> tuple[ClientDataset, ClientDataset]:
    """Reference: one noise draw, one anchor sum and one permutation per
    class, then one index list per split."""
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
    return (ClientDataset(xs[train_idx], ys[train_idx], spec.n_classes),
            ClientDataset(xs[test_idx], ys[test_idx], spec.n_classes))


def popped_partition(pool: ClientDataset, n_clients: int, samples_per_client: int,
                     rng: np.random.Generator) -> list[ClientDataset]:
    """Reference: per-label index lists that each shard pop()s from."""
    queues = {int(lab): list(rng.permutation(pool.class_indices(lab)))
              for lab in pool.present_labels}
    labels_cycle = sorted(queues)
    assigned = []
    for cid in range(n_clients):
        queue = queues[labels_cycle[cid % len(labels_cycle)]]
        take = min(samples_per_client // 2, len(queue))
        assigned.append([queue.pop() for _ in range(take)])
    leftovers = [idx for lab in labels_cycle for idx in queues[lab]]
    leftovers = list(rng.permutation(leftovers)) if leftovers else []
    for shard in assigned:
        shard.extend(leftovers.pop() for _ in range(samples_per_client - len(shard)))
    return [pool.subset(np.array(sorted(shard))) for shard in assigned]


def same_bytes(a: ClientDataset, b: ClientDataset) -> bool:
    return (a.xs.tobytes() == b.xs.tobytes() and a.ys.dtype == b.ys.dtype
            and a.ys.tobytes() == b.ys.tobytes())


@st.composite
def partition_cases(draw):
    n_classes = draw(st.integers(2, 6))
    ys = draw(st.lists(st.integers(1, n_classes), min_size=1, max_size=80))
    n_clients = draw(st.integers(1, min(12, len(ys))))
    samples_per_client = draw(st.integers(1, len(ys) // n_clients))
    return n_classes, ys, n_clients, samples_per_client, draw(st.integers(0, 2**32 - 1))


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

    @given(n_classes=st.integers(2, 12), input_dim=st.integers(1, 70),
           samples_per_class=st.integers(2, 60),
           cluster_spread=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           seed=st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_equals_the_per_class_reference_bit_for_bit(self, n_classes, input_dim,
                                                        samples_per_class, cluster_spread,
                                                        seed):
        # input_dim below n_classes takes class_anchors' normalized-rows branch
        spec = SyntheticSpec(n_classes, input_dim, samples_per_class, cluster_spread, seed)
        for got, want in zip(synth_generate(spec), per_class_generate(spec)):
            assert same_bytes(got, want)

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

    @given(partition_cases())
    @settings(deadline=None, max_examples=150)
    # 8 of 9 rows used, and label 2's queue runs dry before its quota of 2
    @example((2, [1] * 8 + [2], 2, 4, 0))
    # every row used
    @example((2, [1, 2, 1, 2], 2, 2, 5))
    def test_equals_the_popped_lists_bit_for_bit(self, case):
        n_classes, ys, n_clients, samples_per_client, seed = case
        pool = ClientDataset(np.arange(2.0 * len(ys)).reshape(-1, 2), np.array(ys), n_classes)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = partition_clients(pool, n_clients, samples_per_client, rng)
        want = popped_partition(pool, n_clients, samples_per_client, reference_rng)
        assert len(got) == len(want) == n_clients
        assert all(same_bytes(a, b) for a, b in zip(got, want))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

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

