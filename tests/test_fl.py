"""Federated protocol tests: batch composition, FedSGD/FedAvg updates,
weighted aggregation, and the FedAvg(gamma=1) == FedSGD identity."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from llg_lab import experiments, fl
from llg_lab.data import SyntheticSpec, synth_generate
from llg_lab.experiments import ExperimentConfig, rng_for, run_experiment
from llg_lab.fl import (
    BALANCES,
    VALID_BATCH_SIZES,
    BatchSpec,
    RoundUpdate,
    local_train_fedavg,
    local_train_fedsgd,
    make_batch,
    select_clients,
    server_aggregate,
)
from llg_lab.labels import LabelMultiset
from llg_lab.metrics import test_accuracy as accuracy_on
from llg_lab.nn import Gradients, mlp, output_gradient, small_cnn


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
        with pytest.raises(ValueError, match="balance must be 'balanced' or 'unbalanced'"):
            BatchSpec(4, "mixed")


class TestMakeBatch:
    def test_unbalanced_composition_counts(self, pool):
        spec = BatchSpec(4, "unbalanced")
        xs, ys = make_batch(pool, spec, np.random.default_rng(0))
        assert xs.shape == (4, 16)
        # floor(4/2)=2 dominant, floor(4/4)=1 secondary, 1 free draw; the
        # dominant label leads the batch and the secondary starts at B/2
        dominant, secondary = ys[0], ys[2]
        assert dominant != secondary
        assert (ys == dominant).sum() >= 2
        assert (ys == secondary).sum() >= 1
        assert len(ys) == 4

    def test_unbalanced_block_layout(self, pool):
        # the free remainder may collide with the drawn labels, so check
        # the deterministic blocks directly
        spec = BatchSpec(8, "unbalanced")
        _, ys = make_batch(pool, spec, np.random.default_rng(1))
        dominant, secondary = ys[0], ys[4]
        assert dominant != secondary
        assert np.array_equal(ys[:4], np.full(4, dominant))
        assert np.array_equal(ys[4:6], np.full(2, secondary))

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

    @pytest.mark.parametrize("size", [1, 4, 32])
    def test_unpinned_draws_match_labels_read_from_the_data(self, pool, size):
        # the label pair is drawn from np.unique(ys), as it was before the
        # dataset cached its labels; a pool missing classes 1 and 6 shows
        # that only present labels are drawn
        part = pool.subset(np.flatnonzero((pool.ys != 1) & (pool.ys != 6)))
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            _, ys = make_batch(part, BatchSpec(size), rng)
            assert np.array_equal(ys, part.ys[round_by_choice(part, BatchSpec(size), 1, ref)[0]])
            assert rng.random() == ref.random()

    def test_unbalanced_needs_two_labels(self):
        single, _ = synth_generate(SyntheticSpec(
            n_classes=2, input_dim=4, samples_per_class=20, seed=11
        ))
        only_ones = single.subset(np.flatnonzero(single.ys == 1))
        with pytest.raises(ValueError, match="2 distinct labels"):
            make_batch(only_ones, BatchSpec(4, "unbalanced"), np.random.default_rng(0))


def round_by_choice(dataset, spec, gamma, rng):
    """A FedAvg client's (gamma, B) round table drawn as make_batch drew it
    through Generator.choice's array handling. Kept as the oracle."""
    def draw(pool, count):
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return rng.choice(pool, size=count, replace=count > len(pool))

    size = spec.size
    if spec.balance == "balanced":
        return np.stack([rng.integers(0, len(dataset), size=size) for _ in range(gamma)])
    present = np.unique(dataset.ys)
    pair = rng.choice(present, size=2, replace=False)
    others = present[present != pair[0]]
    rows = []
    for step in range(gamma):
        if step > 0:
            pair = (pair[0], rng.choice(others))
        rows.append(np.concatenate([
            draw(dataset.class_indices(pair[0]), size // 2),
            draw(dataset.class_indices(pair[1]), size // 4),
            rng.integers(0, len(dataset), size=size - size // 2 - size // 4),
        ]))
    return np.stack(rows)


@st.composite
def pools_and_counts(draw):
    pool = draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=150, unique=True))
    # a count equal to the pool length or above it is drawn as often as any
    count = draw(st.one_of(st.integers(0, 128), st.just(len(pool)),
                           st.integers(len(pool) + 1, max(len(pool) + 1, 128))))
    return np.array(sorted(pool), dtype=np.int64), count


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state


def picks_from_one_call(n, count, rng):
    """fl._choice_picks over the draws of one integers(0, highs) call, all
    of which it must use."""
    draws = iter(rng.integers(0, fl._choice_highs(n, count)).tolist())
    picks = fl._choice_picks(n, count, draws)
    assert next(draws, None) is None
    return picks


@st.composite
def sizes_and_counts(draw):
    # n past numpy's tail-shuffle threshold (10,000), count up to 64 (half of
    # the largest batch); count = n and count > n drawn as often as any
    n = draw(st.one_of(st.just(1), st.integers(1, 80), st.integers(1, 40_000)))
    counts = [st.integers(0, 64)]
    if n <= 64:
        counts.append(st.just(n))
    if n < 64:
        counts.append(st.integers(n + 1, 64))
    return n, draw(st.one_of(counts))


class TestDrawRewrites:
    """Each draw is made by one Generator.integers(0, highs) call and read
    as Generator.choice reads its own draws: the same entries, and the
    generator left in the same state, on whatever numpy runs the suite."""

    @settings(deadline=None, max_examples=400)
    @given(size_count=sizes_and_counts(), buffered=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(size_count=(1, 1), buffered=False, seed=0)
    @example(size_count=(1, 1), buffered=True, seed=1)
    @example(size_count=(1, 64), buffered=True, seed=2)
    @example(size_count=(64, 64), buffered=False, seed=3)
    @example(size_count=(40_000, 64), buffered=True, seed=4)
    @example(size_count=(10_001, 64), buffered=False, seed=5)
    @example(size_count=(70, 0), buffered=True, seed=6)
    def test_picks_from_one_call_equal_choice(self, size_count, buffered, seed):
        # a pool of one row draws nothing (bound 0); an earlier integers(0, 7)
        # leaves half of a 64-bit output buffered for the next bounded draw
        n, count = size_count
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            assert rng.integers(0, 7) == ref.integers(0, 7)
        assert picks_from_one_call(n, count, rng) == ref.choice(n, count,
                                                                replace=count > n).tolist()
        assert same_state(rng, ref)

    @settings(deadline=None, max_examples=300)
    @given(pool_count=pools_and_counts(), seed=st.integers(0, 2**32 - 1))
    @example(pool_count=(np.arange(64), 64), seed=0)
    @example(pool_count=(np.arange(5), 6), seed=1)
    @example(pool_count=(np.array([3]), 128), seed=2)
    @example(pool_count=(np.arange(150), 0), seed=3)
    def test_picks_read_from_a_pool_equal_choice_on_the_pool(self, pool_count, seed):
        pool, count = pool_count
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = pool[picks_from_one_call(len(pool), count, rng)]
        expected = (np.empty(0, dtype=np.int64) if count == 0 else
                    ref.choice(pool, size=count, replace=count > len(pool)))
        assert drawn.dtype == np.int64
        assert np.array_equal(drawn, expected)
        assert same_state(rng, ref)

    @settings(deadline=None, max_examples=200)
    @given(labels=st.lists(st.integers(1, 200), min_size=2, max_size=150, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_pair_picks_equal_choice_on_the_present_labels(self, labels, seed):
        present = np.array(sorted(labels), dtype=np.int64)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(present[picks_from_one_call(len(present), 2, rng)],
                              ref.choice(present, size=2, replace=False))
        assert same_state(rng, ref)

    @settings(deadline=None, max_examples=200)
    @given(labels=st.lists(st.integers(1, 200), min_size=1, max_size=150, unique=True),
           seed=st.integers(0, 2**32 - 1))
    def test_scalar_secondary_equals_choice_on_the_others(self, labels, seed):
        others = np.array(sorted(labels), dtype=np.int64)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert others[rng.integers(len(others))] == ref.choice(others)
        assert same_state(rng, ref)

    @settings(deadline=None, max_examples=150)
    @given(batch_size=st.sampled_from(VALID_BATCH_SIZES), balance=st.sampled_from(BALANCES),
           gamma=st.integers(1, 5), rows=st.integers(12, 200), seed=st.integers(0, 2**31))
    def test_round_table_equals_the_choice_draws(self, pool, batch_size, balance, gamma,
                                                 rows, seed):
        # small clients leave class pools below B / 2, so the replacement
        # fallback is drawn too
        part = pool.subset(np.random.default_rng(seed).choice(len(pool), size=rows,
                                                               replace=False))
        assume(balance == "balanced" or len(part.present_labels) >= 2)
        spec = BatchSpec(batch_size, balance)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        table = fl._round_indices(part, spec, gamma, rng)
        assert table.shape == (gamma, batch_size)
        assert np.array_equal(table, round_by_choice(part, spec, gamma, ref))
        assert same_state(rng, ref)
        # make_batch is a round of one step
        xs, ys = make_batch(part, spec, rng)
        idx = round_by_choice(part, spec, 1, ref)[0]
        assert np.array_equal(xs, part.xs[idx])
        assert np.array_equal(ys, part.ys[idx])
        assert same_state(rng, ref)


class CountingGenerator:
    """A Generator that counts the calls made on it, with its own
    bit_generator so that local_train_fedavg tells clients apart."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


class TestGeneratorCalls:
    @pytest.mark.parametrize("batch_size", [1, 16, 128])
    @pytest.mark.parametrize("gamma", [1, 4])
    @pytest.mark.parametrize("balance", BALANCES)
    def test_a_client_round_makes_one_call_per_step_plus_the_pair(self, pool, balance, gamma,
                                                                    batch_size):
        draw = np.random.default_rng(batch_size + gamma)
        datasets = [pool.subset(draw.choice(len(pool), size=80, replace=False))
                    for _ in range(3)]
        spec = BatchSpec(batch_size, balance)
        net = mlp(16, 10, hidden=12, seed=3)
        counting = [CountingGenerator(40 + c) for c in range(3)]
        results = local_train_fedavg(net, datasets, spec, gamma, 0.1, counting)
        expected = local_train_fedavg(net, datasets, spec, gamma, 0.1,
                                      [np.random.default_rng(40 + c) for c in range(3)])
        assert [rng.calls for rng in counting] == [1 + gamma if balance == "unbalanced"
                                                   else 1] * 3
        for (update, truth), (want, want_truth) in zip(results, expected):
            assert np.array_equal(update.gradients.vector, want.gradients.vector)
            assert truth == want_truth

    @pytest.mark.parametrize("balance, calls", [("unbalanced", 2), ("balanced", 1)])
    def test_make_batch_makes_at_most_two_calls(self, pool, balance, calls):
        rng = CountingGenerator(5)
        make_batch(pool, BatchSpec(32, balance), rng)
        assert rng.calls == calls


class TestFedSgd:
    def test_zero_weight_net_g_signs_follow_label_frequency(self, pool):
        # with zero weights the softmax is exactly uniform, so g_i < 0 iff
        # label i is over-represented relative to 1/n
        net = mlp(16, 10, seed=0)
        for layer in net.layers:
            if hasattr(layer, "W"):
                layer.W[:] = 0.0
                layer.b[:] = 0.0
        xs, ys = make_batch(pool, BatchSpec(32, "unbalanced"), np.random.default_rng(4))
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
        avg_update, truth = local_train_fedavg(net, [pool], spec, 1, 0.1,
                                               [np.random.default_rng(8)])[0]
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
        update, _ = local_train_fedavg(net, [data], BatchSpec(4, "balanced"), 5, 1e-8,
                                       [np.random.default_rng(9)])[0]
        for acc, one in zip(update.gradients.arrays(), single.gradients.arrays()):
            assert acc == pytest.approx(5.0 * one, rel=1e-5)

    def test_sample_count_is_gamma_times_batch(self, pool):
        net = mlp(16, 10, seed=6)
        update, truth = local_train_fedavg(net, [pool], BatchSpec(8), 10, 0.1,
                                           [np.random.default_rng(10)])[0]
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
            local_train_fedavg(net, [pool], BatchSpec(4), 0, 0.1, [np.random.default_rng(0)])

    @pytest.mark.parametrize("eta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, pool, eta):
        net = mlp(16, 10, seed=8)
        before = net.params.copy()
        with pytest.raises(ValueError, match="learning rate must be finite and >= 0"):
            local_train_fedavg(net, [pool], BatchSpec(4), 2, eta, [np.random.default_rng(0)])
        assert np.array_equal(net.params, before) and net._version == 0

    def test_local_steps_leave_global_model_untouched(self, pool):
        net = mlp(16, 10, seed=9)
        before = net.head.W.copy()
        local_train_fedavg(net, [pool], BatchSpec(4), 3, 0.5, [np.random.default_rng(12)])
        assert np.array_equal(net.head.W, before)


def fedavg_one_client(net, dataset, spec, gamma, eta, rng):
    """The FedAvg trainer as it ran before clients were stacked: one client,
    a copy of the model, a step after every gradient. Kept as the oracle."""
    local = net.copy()
    accumulated = None
    seen = np.zeros(net.n_classes, dtype=np.int64)
    for idx in round_by_choice(dataset, spec, gamma, rng):
        batch, labels = dataset.xs[idx], dataset.ys[idx]
        logits, cache = local.forward(batch)
        grads = local.backward(cache, output_gradient(logits, labels))
        accumulated = grads if accumulated is None else accumulated.add_(grads)
        local.sgd_step(grads, eta)
        seen += np.bincount(labels - 1, minlength=net.n_classes)
    return RoundUpdate(accumulated, gamma * spec.size), LabelMultiset(seen)


@pytest.fixture(scope="module")
def image_pool():
    train, _ = synth_generate(SyntheticSpec(
        n_classes=10, input_dim=36, samples_per_class=30, seed=11
    ))
    return train


class TestClientStack:
    """One round's clients train as one stacked network; each client's
    update, truth and rng state must be what it gets trained alone."""

    @settings(deadline=None, max_examples=60)
    @given(model=st.sampled_from(["mlp", "cnn"]), activation=st.sampled_from(["sigmoid", "relu"]),
           batch_size=st.sampled_from(VALID_BATCH_SIZES), gamma=st.integers(1, 4),
           clients=st.integers(1, 10), balance=st.sampled_from(BALANCES),
           eta=st.sampled_from([0.1, 0.5]), seed=st.integers(0, 2**31))
    def test_stacked_clients_match_one_client_at_a_time_bit_for_bit(
            self, pool, image_pool, model, activation, batch_size, gamma, clients, balance,
            eta, seed):
        if model == "mlp":
            net, data = mlp(16, 10, hidden=12, seed=seed, activation=activation), pool
        else:
            net = small_cnn((6, 6), 10, channels=3, seed=seed, activation=activation)
            data = image_pool
        draw = np.random.default_rng(seed)
        # clients of different sizes, some missing labels
        datasets = [data.subset(draw.choice(len(data), size=int(draw.integers(20, 80)),
                                            replace=False)) for _ in range(clients)]
        spec = BatchSpec(batch_size, balance)
        seeds = [seed + c for c in range(clients)]
        rngs = [np.random.default_rng(s) for s in seeds]
        oracle_rngs = [np.random.default_rng(s) for s in seeds]
        before = net.params.copy()
        stacked = local_train_fedavg(net, datasets, spec, gamma, eta, rngs)
        assert len(stacked) == clients
        for (update, truth), dataset, oracle_rng in zip(stacked, datasets, oracle_rngs):
            expected, expected_truth = fedavg_one_client(net, dataset, spec, gamma, eta,
                                                         oracle_rng)
            assert update.gradients.vector.shape == net.params.shape
            assert update.gradients.layout == net.layout
            assert np.array_equal(update.gradients.vector, expected.gradients.vector)
            assert update.sample_count == expected.sample_count
            assert truth == expected_truth
        assert all(a.random() == b.random() for a, b in zip(rngs, oracle_rngs))
        assert np.array_equal(net.params, before)

    @pytest.mark.parametrize("balance", BALANCES)
    @pytest.mark.parametrize("model", ["mlp", "cnn"])
    def test_permuting_the_clients_permutes_the_results(self, pool, image_pool, model,
                                                        balance):
        if model == "mlp":
            net, data = mlp(16, 10, hidden=12, seed=21), pool
        else:
            net, data = small_cnn((6, 6), 10, channels=3, seed=21), image_pool
        draw = np.random.default_rng(22)
        datasets = [data.subset(draw.choice(len(data), size=int(draw.integers(20, 80)),
                                            replace=False)) for _ in range(6)]
        order = draw.permutation(6)
        spec = BatchSpec(8, balance)
        rngs = [np.random.default_rng(30 + c) for c in range(6)]
        moved = [np.random.default_rng(30 + c) for c in order]
        results = local_train_fedavg(net, datasets, spec, 3, 0.1, rngs)
        permuted = local_train_fedavg(net, [datasets[c] for c in order], spec, 3, 0.1, moved)
        for (update, truth), c in zip(permuted, order):
            assert np.array_equal(update.gradients.vector, results[c][0].gradients.vector)
            assert update.sample_count == results[c][0].sample_count
            assert truth == results[c][1]
        assert all(rng.random() == rngs[c].random() for rng, c in zip(moved, order))

    @pytest.mark.parametrize("first, second", [(0, 2), (1, 2)])
    def test_rngs_sharing_a_bit_generator_rejected(self, pool, first, second):
        # drawn client by client, a shared stream would hand each client
        # different numbers than drawn step by step
        rngs = [np.random.default_rng(c) for c in range(3)]
        rngs[second] = (rngs[first] if first == 0
                        else np.random.Generator(rngs[first].bit_generator))
        with pytest.raises(ValueError, match=f"rngs\\[{first}\\] and rngs\\[{second}\\] share "
                                             "one bit generator"):
            local_train_fedavg(mlp(16, 10, seed=1), [pool] * 3, BatchSpec(4), 2, 0.1, rngs)

    @pytest.mark.parametrize("rngs", [0, 2])
    def test_one_rng_per_dataset_required(self, pool, rngs):
        with pytest.raises(ValueError, match="one rng per dataset"):
            local_train_fedavg(mlp(16, 10, seed=1), [pool], BatchSpec(4), 2, 0.1,
                               [np.random.default_rng(r) for r in range(rngs)])

    def test_empty_round_rejected(self):
        with pytest.raises(ValueError, match="one rng per dataset"):
            local_train_fedavg(mlp(16, 10, seed=1), [], BatchSpec(4), 2, 0.1, [])

    @pytest.mark.parametrize("algorithm", ["fedsgd", "fedavg"])
    def test_convergence_sweep_trains_each_round_in_one_call(self, monkeypatch, algorithm):
        calls = []

        def counted(net, datasets, spec, gamma, eta, rngs):
            calls.append((len(datasets), gamma))
            return local_train_fedavg(net, datasets, spec, gamma, eta, rngs)

        monkeypatch.setattr(experiments, "local_train_fedavg", counted)
        run_experiment(ExperimentConfig(
            experiment="convergence_sweep", algorithm=algorithm, gamma=3,
            attacks=("llg", "random"), batch_sizes=(8,), rounds=4, n_clients=5,
            clients_per_round=3, samples_per_client=40, samples_per_class=40,
        ))
        assert calls == [(3, 3 if algorithm == "fedavg" else 1)] * 4


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

    @pytest.mark.parametrize("eta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, pool, eta):
        net = mlp(16, 10, seed=11)
        xs, ys = make_batch(pool, BatchSpec(8), np.random.default_rng(14))
        update = local_train_fedsgd(net, xs, ys)
        before = net.params.copy()
        with pytest.raises(ValueError, match="learning rate must be finite and >= 0"):
            server_aggregate([update], net, eta)
        assert np.array_equal(net.params, before) and net._version == 0

    def test_aggregation_weights_sum_to_one(self):
        counts = np.array([3, 5, 9], dtype=float)
        assert (counts / counts.sum()).sum() == pytest.approx(1.0, rel=1e-15)


class TestOrchestration:
    def test_select_clients_includes_victim_without_duplicates(self):
        chosen = select_clients(20, 5, np.random.default_rng(0))
        assert chosen[0] == 0
        assert len(chosen) == 5
        assert len(set(chosen)) == 5

    def test_rng_for_streams_are_distinct_and_stable(self):
        a = rng_for(7, 1, 3).random(4)
        b = rng_for(7, 1, 3).random(4)
        c = rng_for(7, 2, 3).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @settings(deadline=None, max_examples=200)
    @given(parts=st.lists(st.one_of(st.sampled_from([0, 2**32 - 1]),
                                    st.integers(0, 2**32 - 1)), min_size=1, max_size=8))
    @example(parts=[0, 2**32 - 1])
    def test_seed_words_give_the_streams_of_the_list_form(self, parts):
        # rng_for and seed_of seed from a uint32 array of one word per part;
        # numpy's SeedSequence(list(parts)) must read the same words
        listed = np.random.SeedSequence(list(parts))
        words = np.random.SeedSequence(experiments._seed_words(parts))
        assert np.array_equal(words.generate_state(4), listed.generate_state(4))
        assert (rng_for(*parts).random(3).tobytes()
                == np.random.default_rng(listed).random(3).tobytes())
        assert experiments.seed_of(*parts) == int(listed.generate_state(1)[0])

    def test_a_negative_seed_part_rejected(self):
        # as SeedSequence([7, -1]) is; its low word would alias 2**32 - 1
        with pytest.raises(ValueError, match="non-negative"):
            rng_for(7, -1)

    def test_a_seed_part_of_two_words_rejected(self):
        # SeedSequence would read 2**32 as the words [0, 1], so the key
        # (2**32, 5) would alias (0, 1, 5)
        for part in (2**32, 2**70):
            with pytest.raises(ValueError, match="below 2\\*\\*32"):
                rng_for(part, 5)
            with pytest.raises(ValueError, match="below 2\\*\\*32"):
                experiments.seed_of(5, part)

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
        assert accuracy_on(net.forward(test.xs)[0], test.ys) > 0.1
