"""Federated protocol tests: batch composition, FedSGD/FedAvg updates,
weighted aggregation, and the FedAvg(gamma=1) == FedSGD identity."""

import numpy as np
import pytest

from llg_lab.data import SyntheticSpec, synth_generate
from llg_lab.experiments import rng_for
from llg_lab.fl import (
    BatchSpec,
    local_train_fedavg,
    local_train_fedsgd,
    make_batch,
    select_clients,
    server_aggregate,
)
from llg_lab.labels import LabelMultiset
from llg_lab.metrics import test_accuracy as accuracy_on
from llg_lab.nn import Gradients, mlp


@pytest.fixture(scope="module")
def pool():
    train, _ = synth_generate(SyntheticSpec(
        n_classes=10, input_dim=16, samples_per_class=60, seed=10
    ))
    return train


class TestBatchSpec:
    @pytest.mark.parametrize("size", [3, 0, 256, -2])
    def test_non_power_of_two_sizes_rejected(self, size):
        with pytest.raises(ValueError, match="power of two"):
            BatchSpec(size)

    def test_unknown_balance_rejected(self):
        with pytest.raises(ValueError, match="balance"):
            BatchSpec(4, "mixed")

    def test_pinned_labels_must_differ(self):
        with pytest.raises(ValueError, match="must differ"):
            BatchSpec(4, dominant=3, secondary=3)


class TestMakeBatch:
    def test_unbalanced_composition_counts(self, pool):
        spec = BatchSpec(4, "unbalanced", dominant=3, secondary=7)
        xs, ys = make_batch(pool, spec, np.random.default_rng(0))
        assert xs.shape == (4, 16)
        # floor(4/2)=2 dominant, floor(4/4)=1 secondary, 1 free draw
        assert (ys == 3).sum() >= 2
        assert (ys == 7).sum() >= 1
        assert len(ys) == 4

    def test_unbalanced_block_layout(self, pool):
        # the free remainder may collide with the pinned labels, so check
        # the deterministic blocks directly
        spec = BatchSpec(8, "unbalanced", dominant=2, secondary=5)
        _, ys = make_batch(pool, spec, np.random.default_rng(1))
        assert np.array_equal(ys[:4], np.full(4, 2))
        assert np.array_equal(ys[4:6], np.full(2, 5))

    def test_single_sample_balanced_draw(self, pool):
        xs, ys = make_batch(pool, BatchSpec(1, "balanced"), np.random.default_rng(2))
        assert xs.shape == (1, 16)
        assert 1 <= ys[0] <= 10

    def test_balanced_draws_are_uniform_chi_squared(self, pool):
        # 10^4 draws vs the uniform distribution; chi^2 critical value for
        # df=9 at p=0.01 is 21.666
        rng = np.random.default_rng(3)
        counts = np.zeros(10)
        for _ in range(100):
            _, ys = make_batch(pool, BatchSpec(64, "balanced"), rng)
            counts += np.bincount(ys - 1, minlength=10)
        draws = counts.sum()
        expected = draws / 10.0
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < 21.666

    def test_unbalanced_needs_two_labels(self):
        single, _ = synth_generate(SyntheticSpec(
            n_classes=2, input_dim=4, samples_per_class=20, seed=11
        ))
        only_ones = single.subset(np.flatnonzero(single.ys == 1))
        with pytest.raises(ValueError, match="2 distinct labels"):
            make_batch(only_ones, BatchSpec(4, "unbalanced"), np.random.default_rng(0))


class TestFedSgd:
    def test_zero_weight_net_g_signs_follow_label_frequency(self, pool):
        # with zero weights the softmax is exactly uniform, so g_i < 0 iff
        # label i is over-represented relative to 1/n
        net = mlp(16, 10, seed=0)
        for layer in net.layers:
            if hasattr(layer, "W"):
                layer.W[:] = 0.0
                layer.b[:] = 0.0
        xs, ys = make_batch(pool, BatchSpec(32, "unbalanced", dominant=4, secondary=9),
                            np.random.default_rng(4))
        update = local_train_fedsgd(net, xs, ys)
        g = update.last_layer().g
        counts = np.bincount(ys - 1, minlength=10)
        for i in range(10):
            if counts[i] / 32.0 > 0.1:
                assert g[i] < 0
            elif counts[i] / 32.0 < 0.1:
                assert g[i] > 0

    def test_sample_count_is_batch_size(self, pool):
        net = mlp(16, 10, seed=1)
        xs, ys = make_batch(pool, BatchSpec(8), np.random.default_rng(5))
        assert local_train_fedsgd(net, xs, ys).sample_count == 8

    def test_same_seed_gives_identical_update(self, pool):
        net = mlp(16, 10, seed=2)
        updates = []
        for _ in range(2):
            xs, ys = make_batch(pool, BatchSpec(8), np.random.default_rng(6))
            updates.append(local_train_fedsgd(net, xs, ys))
        for a, b in zip(updates[0].gradients.arrays(), updates[1].gradients.arrays()):
            assert np.array_equal(a, b)

    def test_does_not_mutate_the_model(self, pool):
        net = mlp(16, 10, seed=3)
        before = net.head.W.copy()
        xs, ys = make_batch(pool, BatchSpec(8), np.random.default_rng(7))
        local_train_fedsgd(net, xs, ys)
        assert np.array_equal(net.head.W, before)


class TestFedAvg:
    def test_gamma_one_is_bit_identical_to_fedsgd(self, pool):
        net = mlp(16, 10, seed=4)
        spec = BatchSpec(8, "unbalanced")
        xs, ys = make_batch(pool, spec, np.random.default_rng(8))
        sgd_update = local_train_fedsgd(net, xs, ys)
        avg_update, truth = local_train_fedavg(net, pool, spec, 1, 0.1,
                                               np.random.default_rng(8))
        for a, b in zip(sgd_update.gradients.arrays(), avg_update.gradients.arrays()):
            assert np.array_equal(a, b)
        assert truth == LabelMultiset.from_labels(ys, 10)

    def test_tiny_eta_accumulates_gamma_copies_of_one_gradient(self):
        # dataset with a single repeated sample makes every batch identical
        xs = np.tile(np.linspace(0.0, 1.0, 16), (4, 1))
        ys = np.full(4, 2)
        from llg_lab.data import ClientDataset
        data = ClientDataset(xs, ys, 10)
        net = mlp(16, 10, seed=5)
        single = local_train_fedsgd(net, xs, ys)
        update, _ = local_train_fedavg(net, data, BatchSpec(4, "balanced"), 5, 1e-8,
                                       np.random.default_rng(9))
        for acc, one in zip(update.gradients.arrays(), single.gradients.arrays()):
            assert acc == pytest.approx(5.0 * one, rel=1e-5)

    def test_sample_count_is_gamma_times_batch(self, pool):
        net = mlp(16, 10, seed=6)
        update, truth = local_train_fedavg(net, pool, BatchSpec(8), 10, 0.1,
                                           np.random.default_rng(10))
        assert update.sample_count == 80
        assert truth.total == 80

    def test_accumulated_gradient_equals_weight_delta_over_eta(self, pool):
        # for plain SGD the summed per-step gradients equal
        # (W_start - W_end) / eta exactly up to float error
        net = mlp(16, 10, seed=7)
        eta = 0.1
        start = [arr.copy() for layer in net.layers if hasattr(layer, "W")
                 for arr in (layer.W, layer.b)]
        local = net.copy()
        from llg_lab.nn import output_gradient
        accumulated = None
        rng = np.random.default_rng(11)
        for _ in range(5):
            xs, ys = make_batch(pool, BatchSpec(8), rng)
            logits, cache = local.forward(xs)
            grads = local.backward(cache, output_gradient(logits, ys))
            accumulated = grads.copy() if accumulated is None else accumulated.add_(grads)
            local.sgd_step(grads, eta)
        end = [arr for layer in local.layers if hasattr(layer, "W")
               for arr in (layer.W, layer.b)]
        deltas = [(s - e) / eta for s, e in zip(start, end)]
        for acc, delta in zip(accumulated.arrays(), deltas):
            assert acc == pytest.approx(delta, rel=1e-9, abs=1e-12)

    def test_gamma_below_one_rejected(self, pool):
        net = mlp(16, 10, seed=8)
        with pytest.raises(ValueError, match="gamma"):
            local_train_fedavg(net, pool, BatchSpec(4), 0, 0.1, np.random.default_rng(0))

    def test_local_steps_leave_global_model_untouched(self, pool):
        net = mlp(16, 10, seed=9)
        before = net.head.W.copy()
        local_train_fedavg(net, pool, BatchSpec(4), 3, 0.5, np.random.default_rng(12))
        assert np.array_equal(net.head.W, before)


class TestServerAggregate:
    def test_single_client_equals_plain_sgd_step(self, pool):
        net_a = mlp(16, 10, seed=10)
        net_b = net_a.copy()
        xs, ys = make_batch(pool, BatchSpec(8), np.random.default_rng(13))
        update = local_train_fedsgd(net_a, xs, ys)
        server_aggregate([update], net_a, 0.1)
        net_b.sgd_step(update.gradients, 0.1)
        assert np.array_equal(net_a.head.W, net_b.head.W)

    def test_opposite_gradients_cancel(self, pool):
        net = mlp(16, 10, seed=11)
        before = net.head.W.copy()
        xs, ys = make_batch(pool, BatchSpec(8), np.random.default_rng(14))
        update = local_train_fedsgd(net, xs, ys)
        from llg_lab.fl import RoundUpdate
        mirrored = RoundUpdate(update.gradients.scaled(-1.0), update.sample_count)
        server_aggregate([update, mirrored], net, 0.1)
        assert net.head.W == pytest.approx(before, abs=1e-15)

    def test_weighted_mean_matches_hand_computation(self):
        net = mlp(4, 2, seed=12)
        from llg_lab.fl import RoundUpdate
        updates = []
        grads_list = []
        for k, v in enumerate((1, 2, 3)):
            grads = Gradients.zeros_for(net)
            for arr in grads.arrays():
                arr += float(k + 1)
            grads_list.append(grads)
            updates.append(RoundUpdate(grads, v))
        before = net.head.W.copy()
        server_aggregate(updates, net, 0.5)
        # weights 1/6, 2/6, 3/6 over constant gradients 1, 2, 3
        mean = (1 * 1 + 2 * 2 + 3 * 3) / 6.0
        assert net.head.W == pytest.approx(before - 0.5 * mean, rel=1e-12)

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            server_aggregate([], mlp(4, 2, seed=0), 0.1)

    def test_aggregation_weights_sum_to_one(self):
        counts = np.array([3, 5, 9], dtype=float)
        assert (counts / counts.sum()).sum() == pytest.approx(1.0, rel=1e-15)


class TestOrchestration:
    def test_select_clients_includes_victim_without_duplicates(self):
        chosen = select_clients(20, 5, np.random.default_rng(0), victim=0)
        assert chosen[0] == 0
        assert len(chosen) == 5
        assert len(set(chosen)) == 5

    def test_rng_for_streams_are_distinct_and_stable(self):
        a = rng_for(7, 1, 3).random(4)
        b = rng_for(7, 1, 3).random(4)
        c = rng_for(7, 2, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_two_hundred_rounds_beat_the_random_baseline(self):
        # training sanity: federated SGD on the synthetic task must clear 1/n
        train, test = synth_generate(SyntheticSpec(
            n_classes=10, input_dim=16, samples_per_class=60, seed=12
        ))
        from llg_lab.data import partition_clients
        clients = partition_clients(train, 10, 40, np.random.default_rng(3))
        net = mlp(16, 10, seed=13)
        spec = BatchSpec(8, "unbalanced")
        for round_idx in range(1, 201):
            selected = select_clients(10, 10, np.random.default_rng(round_idx))
            updates = []
            for cid in selected:
                xs, ys = make_batch(clients[cid], spec, rng_for(99, cid, round_idx))
                updates.append(local_train_fedsgd(net, xs, ys))
            server_aggregate(updates, net, 0.5)
        assert accuracy_on(net, test) > 0.1
