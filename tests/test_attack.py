"""Attack tests: estimator arithmetic against the defining formulas,
a hand-traced extraction run, soundness/cardinality/ordering properties,
and the enumeration oracle for the random-guess baseline."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llg_lab import attack
from llg_lab.attack import (
    IMPACT_BATCHES,
    OFFSET_BATCH_SIZES,
    AttackParams,
    estimate_impact_shared,
    estimate_params_auxiliary,
    estimate_params_whitebox,
    gradient_row_sums,
    llg_extract,
    random_guess,
)
from llg_lab.data import SyntheticSpec, synth_generate
from llg_lab.fl import (
    VALID_BATCH_SIZES,
    BatchSpec,
    local_train_fedavg,
    local_train_fedsgd,
    make_batch,
)
from llg_lab.labels import LabelMultiset
from llg_lab.metrics import attack_success_rate
from llg_lab.nn import LastLayerGradient, mlp, output_gradient, small_cnn, softmax_residual


@pytest.fixture(scope="module")
def world():
    train, test = synth_generate(SyntheticSpec(seed=20))
    return train, test


def last_from_g(g, sample_count):
    """LastLayerGradient whose row sums equal g (one column)."""
    return LastLayerGradient(np.asarray(g, dtype=np.float64)[:, None], sample_count)


def held_out(net, aux):
    """The (logits, penultimate) pair of the model's forward pass over aux."""
    logits, cache = net.forward(aux.xs)
    return logits, cache.penultimate


def forward_rows(net, batch, labels):
    """The rows of one forward pass of batch, as the llg_star probes take them."""
    logits, cache = net.forward(batch)
    return gradient_row_sums(logits, cache.penultimate, labels)


def looped_extract(g, params: AttackParams, target: int) -> np.ndarray:
    """The counts llg_extract gave when its step 1 walked the labels one by
    one and stopped at |D|; kept as the oracle for the masked step 1."""
    g = np.array(g, dtype=np.float64)
    counts = np.zeros(g.size, dtype=np.int64)
    extracted = 0
    for i in range(g.size):
        if extracted >= target:
            break
        if g[i] < 0:
            counts[i] += 1
            g[i] -= params.impact
            extracted += 1
    g -= params.offsets
    while extracted < target:
        i = int(np.argmin(g))
        counts[i] += 1
        g[i] -= params.impact
        extracted += 1
    return counts


class TestImpactFromSharedGradients:
    def test_matches_direct_arithmetic(self):
        g = np.array([-0.5, 0.2, -0.3, 0.1, 0.0, 0.05, 0.0, 0.0, 0.0, 0.0])
        m = estimate_impact_shared(last_from_g(g, 8))
        assert m == pytest.approx((1.0 / 8.0) * (-0.8) * 1.1, rel=1e-12)
        assert m == pytest.approx(-0.11, rel=1e-12)

    @pytest.mark.parametrize("g", [[0.1, 0.0, 0.2], [0.0, 0.0, 0.0]],
                             ids=["non-negative", "zero"])
    def test_no_negative_sum_gives_minus_one_over_the_sample_count(self, g):
        # |D| = 4 is not n = 3, so -1/|D| is told apart from -1/n
        assert estimate_impact_shared(last_from_g(g, 4)) == -0.25

    def test_within_factor_two_of_activation_based_value(self, world):
        # oracle: the per-occurrence impact is -(per-sample activation sum,
        # averaged over the batch)/B, read straight out of the forward cache
        train, _ = world
        for trial in range(20):
            rng = np.random.default_rng(500 + trial)
            net = mlp(64, 10, seed=600 + trial)
            xs, ys = make_batch(train, BatchSpec(8, "unbalanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            _, cache = net.forward(xs)
            true_impact = -float(cache.penultimate.sum(axis=1).mean()) / 8.0
            estimated = estimate_impact_shared(update.last_layer())
            ratio = estimated / true_impact  # both negative
            assert 0.5 <= ratio <= 2.0

    def test_estimated_impact_is_negative_on_untrained_models(self, world):
        train, _ = world
        for trial in range(50):
            rng = np.random.default_rng(800 + trial)
            net = mlp(64, 10, seed=900 + trial)
            xs, ys = make_batch(train, BatchSpec(32, "unbalanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            assert estimate_impact_shared(update.last_layer()) < 0


class TestWhiteBoxEstimation:
    def test_symmetric_head_gives_equal_offsets(self):
        # identical head rows force a uniform softmax on any input, and zero
        # dummies make every probe batch identical, so the offsets collapse
        net = mlp(16, 10, seed=30)
        net.head.W[:] = net.head.W[0]
        net.head.b[:] = net.head.b[0]
        params = estimate_params_whitebox(net, 8, dummy_kind="zeros")
        assert params.offsets == pytest.approx(np.full(10, params.offsets[0]), rel=1e-9)

    def test_offsets_reduce_the_model_residual(self, world):
        # estimated offsets must shrink mean |g - lambda*m - s| vs s = 0
        train, test = world
        with_s, without_s = [], []
        for trial in range(100):
            rng = np.random.default_rng(1200 + trial)
            net = mlp(64, 10, seed=1300 + trial)
            xs, ys = make_batch(train, BatchSpec(8, "unbalanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            params = estimate_params_whitebox(net, 8, dummy_kind="zeros", rng=rng)
            lam = LabelMultiset.from_labels(ys, 10).counts
            g = update.last_layer().g
            with_s.append(np.abs(g - lam * params.impact - params.offsets).mean())
            without_s.append(np.abs(g - lam * params.impact).mean())
        assert np.mean(with_s) < np.mean(without_s)

    def test_impact_averages_over_classes_and_batch(self):
        # the estimate must follow mean(gbar) * (1 + 1/n) / B for the g
        # values observed on single-label probe batches
        net = mlp(16, 4, seed=31)
        batch_size = 8
        observed = []
        dummy = np.zeros((batch_size, 16))
        for label in range(1, 5):
            rows = forward_rows(net, dummy, np.full(batch_size, label))
            observed.append(rows.mean(axis=0)[label - 1])
        expected = sum(observed) * (1.0 + 1.0 / 4.0) / (4 * batch_size)
        params = estimate_params_whitebox(net, batch_size, dummy_kind="zeros")
        assert params.impact == pytest.approx(expected, rel=1e-12)

    def test_uniform_random_dummies_need_a_generator(self):
        # no hidden default stream: the caller says where the dummies come from
        net = mlp(16, 4, seed=32)
        with pytest.raises(ValueError, match="need a random generator"):
            estimate_params_whitebox(net, 4, dummy_kind="uniform_random")

    def test_unknown_dummy_kind_rejected(self):
        net = mlp(16, 4, seed=32)
        with pytest.raises(ValueError, match="dummy kind"):
            estimate_params_whitebox(net, 4, dummy_kind="noise")


def batch_row_sums(net, batch, labels):
    """A probe batch's head row sums from the head weight gradient dyᵀ·a."""
    logits, cache = net.forward(batch)
    return (output_gradient(logits, labels).T @ cache.penultimate).sum(axis=1)


def probed_one_forward_per_probe(net, batch_size, batch_for_label, probes):
    """Impact and offsets with one forward pass per probe batch: the
    reference the per-sample rows must reproduce."""
    n = net.n_classes
    gbar = np.zeros(n)
    for label in range(1, n + 1):
        gbar[label - 1] = np.mean([
            batch_row_sums(net, batch_for_label(label, batch_size),
                           np.full(batch_size, label))[label - 1]
            for _ in range(probes)
        ])
    impact = float(gbar.sum() * (1.0 + 1.0 / n) / (n * batch_size))
    sums, counts = np.zeros(n), np.zeros(n)
    for size in OFFSET_BATCH_SIZES:
        for j in range(1, n + 1):
            g = batch_row_sums(net, batch_for_label(j, size), np.full(size, j))
            mask = np.arange(n) != j - 1
            sums[mask] += g[mask]
            counts[mask] += 1
    return impact, sums / counts


def loop_estimates(n, batch_size, rows_for_label):
    """Impact and offsets from one reduction per probe, as the estimators
    computed them before the probe-mean table: the oracle they must equal
    bit for bit."""
    gbar = np.zeros(n)
    for label in range(1, n + 1):
        observed = [rows_for_label(label, batch_size).mean(axis=0)[label - 1]
                    for _ in range(IMPACT_BATCHES)]
        gbar[label - 1] = np.mean(observed)
    impact = float(gbar.sum() * (1.0 + 1.0 / n) / (n * batch_size))
    sums = np.zeros(n)
    for size in OFFSET_BATCH_SIZES:
        for j in range(1, n + 1):
            g = rows_for_label(j, size).mean(axis=0)
            mask = np.arange(n) != j - 1
            sums[mask] += g[mask]
    return impact, sums / (len(OFFSET_BATCH_SIZES) * (n - 1))


def sampled_auxiliary(rows, aux, batch_size, rng):
    """The paper's LLG+ estimate from sampled probes, as (impact, offsets):
    each probe is one rng.choice of its label's pool, with replacement once
    B outgrows the pool, and the loop oracle averages the probes' rows."""
    def rows_for_label(label, size):
        pool = aux.class_indices(label)
        return rows[rng.choice(pool, size=size, replace=size > len(pool))]

    return loop_estimates(aux.n_classes, batch_size, rows_for_label)


def class_mean_params(rows, ys, n, batch_size):
    """_params of the per-class mean rows, averaged one class at a time: the
    oracle of the auxiliary estimator's one reduction."""
    means = np.stack([rows[ys == label].mean(axis=0) for label in range(1, n + 1)])
    return attack._params(means, batch_size)


def loop_rows_for_label(net, kind, rng):
    """The per-probe rows the loop oracle reads, drawn from rng in the
    estimators' order; a zeros/ones probe is the one row of its label."""
    n, input_dim = net.n_classes, int(np.prod(net.input_shape))
    if kind == "uniform_random":
        def rows_for_label(label, size):
            return forward_rows(net, rng.random((size, input_dim)), np.full(size, label))
    else:
        fill = 0.0 if kind == "zeros" else 1.0
        rows = forward_rows(net, np.full((n, input_dim), fill), np.arange(1, n + 1))

        def rows_for_label(label, _size):
            return rows[label - 1:label]
    return rows_for_label


def probe_net(model, activation, seed):
    if model == "mlp":
        return mlp(64, 10, seed=seed, activation=activation)
    return small_cnn((8, 8), 10, seed=seed, activation=activation)


def tie_head(net, classes):
    """Zero the head rows of classes and give them one bias: their logits
    are then that bias exactly, on every row, so the argmax ties among them
    wherever they lead."""
    net.head.W[classes] = 0.0
    net.head.b[classes] = net.head.b[classes[0]]


def network_row_sums(net, batch, labels):
    """gradient_row_sums as it was when it ran its own forward pass: the
    oracle the shared held-out forward must equal bit for bit."""
    logits, cache = net.forward(batch)
    rows = softmax_residual(logits, labels) * cache.penultimate.sum(axis=1)[:, None]
    if not np.all(np.isfinite(rows)):
        raise ValueError("probe gradient row sums contain non-finite values")
    return rows


class TestProbeRowSums:
    @settings(deadline=None, max_examples=80)
    @given(model=st.sampled_from(["mlp", "cnn"]),
           activation=st.sampled_from(["sigmoid", "relu"]),
           batch_size=st.integers(1, 128),
           fill=st.sampled_from(["zeros", "ones", "uniform"]),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_the_full_backward(self, model, activation, batch_size, fill, seed):
        # row k is the head row sums of sample k's own one-sample backward
        # pass, and the mean of the rows is those of the whole batch's
        rng = np.random.default_rng(seed)
        net = probe_net(model, activation, seed)
        shape = (batch_size, int(np.prod(net.input_shape)))
        batch = {"zeros": np.zeros, "ones": np.ones}.get(fill, rng.random)(shape)
        labels = rng.integers(1, 11, size=batch_size)
        rows = forward_rows(net, batch, labels)
        assert rows.shape == (batch_size, 10)
        for k in range(batch_size):
            logits, cache = net.forward(batch[k:k + 1])
            one = net.backward(cache, output_gradient(logits, labels[k:k + 1])).head[0]
            np.testing.assert_allclose(rows[k], one.sum(axis=1), rtol=1e-12, atol=0)
        logits, cache = net.forward(batch)
        oracle = net.backward(cache, output_gradient(logits, labels)).head[0].sum(axis=1)
        np.testing.assert_allclose(rows.mean(axis=0), oracle, rtol=0,
                                   atol=1e-12 * np.abs(oracle).max())

    @settings(deadline=None, max_examples=40)
    @given(model=st.sampled_from(["mlp", "cnn"]),
           activation=st.sampled_from(["sigmoid", "relu"]),
           batch_size=st.integers(1, 128),
           kind=st.sampled_from(["zeros", "ones"]),
           seed=st.integers(0, 2**32 - 1))
    def test_estimates_match_one_forward_per_probe(self, model, activation, batch_size, kind,
                                                   seed):
        net = probe_net(model, activation, seed)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        params = estimate_params_whitebox(net, batch_size, kind, rng)

        def batch_for_label(_label, size):
            return np.full((size, 64), 0.0 if kind == "zeros" else 1.0)
        impact, offsets = probed_one_forward_per_probe(net, batch_size, batch_for_label, 1)
        assert np.allclose(params.impact, impact, rtol=1e-9, atol=0)
        assert np.allclose(params.offsets, offsets, rtol=1e-9, atol=1e-15)
        assert rng.random() == reference_rng.random()

    @settings(deadline=None, max_examples=60)
    @given(model=st.sampled_from(["mlp", "cnn"]),
           activation=st.sampled_from(["sigmoid", "relu"]),
           batch_size=st.integers(1, 128),
           kind=st.sampled_from(["zeros", "ones"]),
           seed=st.integers(0, 2**32 - 1))
    def test_fixed_dummies_are_params_of_one_row_per_label(self, model, activation, batch_size,
                                                           kind, seed):
        # every probe of a label is the same input, so its one row is the
        # label's mean row: bit for bit, and the old per-probe loop (which
        # averaged IMPACT_BATCHES and len(OFFSET_BATCH_SIZES) copies of it)
        # within rounding
        net = probe_net(model, activation, seed)
        n, fill = net.n_classes, 0.0 if kind == "zeros" else 1.0
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        params = estimate_params_whitebox(net, batch_size, kind, rng)
        rows = forward_rows(net, np.full((n, 64), fill), np.arange(1, n + 1))
        table = attack._params(rows, batch_size)
        assert params.impact == table.impact
        assert params.offsets.tobytes() == table.offsets.tobytes()
        impact, offsets = loop_estimates(n, batch_size, loop_rows_for_label(net, kind, loop_rng))
        np.testing.assert_allclose(params.impact, impact, rtol=1e-12, atol=0)
        np.testing.assert_allclose(params.offsets, offsets, rtol=1e-12, atol=0)
        assert rng.random() == loop_rng.random()

    @settings(deadline=None, max_examples=30)
    @given(model=st.sampled_from(["mlp", "cnn"]),
           activation=st.sampled_from(["sigmoid", "relu"]),
           batch_size=st.sampled_from(VALID_BATCH_SIZES),
           seed=st.integers(0, 2**32 - 1))
    def test_uniform_dummies_are_one_draw_of_the_per_label_budget(self, model, activation,
                                                                  batch_size, seed):
        # IMPACT_BATCHES probes of B and one of each offset size per label,
        # drawn label-major in one call and averaged per label
        net = probe_net(model, activation, seed)
        n = net.n_classes
        per_label = IMPACT_BATCHES * batch_size + sum(OFFSET_BATCH_SIZES)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        params = estimate_params_whitebox(net, batch_size, "uniform_random", rng)
        labels = np.repeat(np.arange(1, n + 1), per_label)
        rows = forward_rows(net, reference_rng.random((n * per_label, 64)), labels)
        expected = class_mean_params(rows, labels, n, batch_size)
        np.testing.assert_allclose(params.impact, expected.impact, rtol=1e-12, atol=0)
        np.testing.assert_allclose(params.offsets, expected.offsets, rtol=1e-12, atol=0)
        assert rng.random() == reference_rng.random()

    def test_uniform_dummies_on_the_cnn_peak_under_45_mb_at_b128(self):
        # 10·(10·128 + 42) = 13,220 dummy rows in one inference pass: the
        # dummies (6.8 MB), the 128-row blocks' penultimate activations and
        # their concatenation (13.5 MB each). One forward that kept every
        # layer's cache and gathered every sample's patches peaked at 102 MB
        net = small_cnn((8, 8), 10)
        tracemalloc.start()
        try:
            estimate_params_whitebox(net, 128, "uniform_random", np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45e6

    def test_every_estimate_makes_one_row_sum_call(self, world, monkeypatch):
        _, aux = world
        net = mlp(64, 10, seed=43)
        calls = []
        real = attack.gradient_row_sums
        monkeypatch.setattr(attack, "gradient_row_sums",
                            lambda *args: calls.append(len(args[1])) or real(*args))
        estimate_params_auxiliary(*held_out(net, aux), aux, 8)
        assert calls == [len(aux)]
        for kind in ("zeros", "ones"):
            calls.clear()
            estimate_params_whitebox(net, 8, kind)
            assert calls == [10]
        calls.clear()
        estimate_params_whitebox(net, 8, "uniform_random", np.random.default_rng(0))
        assert calls == [10 * (IMPACT_BATCHES * 8 + sum(OFFSET_BATCH_SIZES))]

    def test_non_finite_row_sum_rejected(self):
        # finite logits (zero head weights) over huge finite activations:
        # each head entry is finite, but a row sum overflows
        net = mlp(1, 2, hidden=8, seed=0, activation="relu")
        net.layers[0].W[:] = 1.0
        net.layers[0].b[:] = 0.0
        net.head.W[:] = 0.0
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            forward_rows(net, np.array([[1e308]]), np.array([1]))


class TestClassMeanEstimate:
    @settings(deadline=None, max_examples=60)
    @given(model=st.sampled_from(["mlp", "cnn"]),
           activation=st.sampled_from(["sigmoid", "relu"]),
           pool_sizes=st.lists(st.integers(1, 150), min_size=10, max_size=10),
           seed=st.integers(0, 2**32 - 1))
    def test_estimate_is_params_of_the_class_mean_rows(self, world, model, activation,
                                                       pool_sizes, seed):
        # class pools of uneven sizes, drawn from the held-out set's classes
        # with repeats and shuffled; the estimate must not depend on the
        # order of the auxiliary rows
        _, test = world
        rng = np.random.default_rng(seed)
        picks = np.concatenate([rng.choice(test.class_indices(label), size=size)
                                for label, size in enumerate(pool_sizes, start=1)])
        aux = test.subset(rng.permutation(picks))
        net = probe_net(model, activation, seed)
        logits, penultimate = held_out(net, aux)
        rows = gradient_row_sums(logits, penultimate, aux.ys)
        order = rng.permutation(len(aux))
        for batch_size in VALID_BATCH_SIZES:
            params = estimate_params_auxiliary(logits, penultimate, aux, batch_size)
            expected = class_mean_params(rows, aux.ys, 10, batch_size)
            permuted = estimate_params_auxiliary(logits[order], penultimate[order],
                                                 aux.subset(order), batch_size)
            for got in (params, permuted):
                np.testing.assert_allclose(got.impact, expected.impact, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got.offsets, expected.offsets, rtol=1e-12, atol=0)


class TestClosedFormExpectation:
    @pytest.mark.parametrize("batch_size", [1, 8, 128])
    def test_sampled_estimates_centre_on_the_class_mean_rows(self, batch_size):
        # the paper's sampled estimator is the oracle: _params is linear in
        # the probe means, and a probe mean's expectation, drawn with or
        # without replacement (B = 128 outgrows the 100-sample pools), is
        # its class's mean row. So the sample means of 400 sampled estimates
        # must lie within 4 standard errors of the closed-form estimate
        _, aux = synth_generate(SyntheticSpec(seed=7))
        net = mlp(64, 10, seed=3)
        logits, penultimate = held_out(net, aux)
        closed = estimate_params_auxiliary(logits, penultimate, aux, batch_size)
        rows = gradient_row_sums(logits, penultimate, aux.ys)
        rng, draws = np.random.default_rng(7), 400
        estimates = [sampled_auxiliary(rows, aux, batch_size, rng) for _ in range(draws)]
        impacts = np.array([impact for impact, _ in estimates])
        offsets = np.stack([offsets for _, offsets in estimates])
        for sampled, expected in ((impacts, closed.impact), (offsets, closed.offsets)):
            standard_error = sampled.std(axis=0, ddof=1) / np.sqrt(draws)
            assert np.all(standard_error > 0)
            assert np.all(np.abs(sampled.mean(axis=0) - expected) <= 4 * standard_error)


class TestUniformDummyExpectation:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_pooled_estimates_centre_on_the_per_probe_estimator(self, batch_size):
        # the paper's estimator, one forward and one mean per probe, is the
        # oracle: _params is linear in the probe means, and a uniform probe
        # mean of label l has the same expectation whatever the probe's
        # size. So the means of 200 estimates of each lie within 4 standard
        # errors of their difference
        net = mlp(64, 10, seed=3)
        rng, draws = np.random.default_rng(7), 200
        pooled = [estimate_params_whitebox(net, batch_size, "uniform_random", rng)
                  for _ in range(draws)]
        rows_for_label = loop_rows_for_label(net, "uniform_random", rng)
        probed = [loop_estimates(10, batch_size, rows_for_label) for _ in range(draws)]
        for got, oracle in ((np.array([p.impact for p in pooled]),
                             np.array([impact for impact, _ in probed])),
                            (np.stack([p.offsets for p in pooled]),
                             np.stack([offsets for _, offsets in probed]))):
            variances = [sample.var(axis=0, ddof=1) / draws for sample in (got, oracle)]
            standard_error = np.sqrt(variances[0] + variances[1])
            assert np.all(standard_error > 0)
            assert np.all(np.abs(got.mean(axis=0) - oracle.mean(axis=0))
                          <= 4 * standard_error)


class TestSharedHeldOutForward:
    @settings(deadline=None, max_examples=60)
    @given(model=st.sampled_from(["mlp", "cnn"]),
           activation=st.sampled_from(["sigmoid", "relu"]),
           rows=st.integers(10, 300),
           batch_size=st.sampled_from([1, 2, 8, 32, 128]),
           tied=st.integers(0, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_estimate_equals_the_network_path_bit_for_bit(self, world, model, activation,
                                                          rows, batch_size, tied, seed):
        # one sample of every class first, so that every class is present
        _, test = world
        rng = np.random.default_rng(seed)
        firsts = [test.class_indices(label)[0] for label in range(1, 11)]
        aux = test.subset(np.concatenate([firsts, rng.choice(len(test), size=rows - 10)]))
        net = probe_net(model, activation, seed)
        if tied >= 2:
            tie_head(net, rng.choice(10, size=tied, replace=False))
        logits, penultimate = held_out(net, aux)
        network_rows = network_row_sums(net, aux.xs, aux.ys)
        assert np.array_equal(gradient_row_sums(logits, penultimate, aux.ys), network_rows)
        params = estimate_params_auxiliary(logits, penultimate, aux, batch_size)
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(attack, "gradient_row_sums", lambda *args: network_rows)
            network = estimate_params_auxiliary(logits, penultimate, aux, batch_size)
        assert params.impact == network.impact
        assert params.offsets.tobytes() == network.offsets.tobytes()


class TestEstimatorsLeaveTheModelAlone:
    @pytest.mark.parametrize("model", ["mlp", "cnn"])
    def test_probing_changes_no_parameter(self, world, model):
        # the estimators probe the model itself, forward passes only
        _, test = world
        net = mlp(64, 10, seed=40) if model == "mlp" else small_cnn((8, 8), 10, seed=40)
        before, version = net.params.copy(), net._version
        rng = np.random.default_rng(41)
        for dummy_kind in ("zeros", "uniform_random"):
            estimate_params_whitebox(net, 8, dummy_kind=dummy_kind, rng=rng)
        estimate_params_auxiliary(*held_out(net, test), test, 8)
        assert net.params.tobytes() == before.tobytes()
        assert net._version == version


class TestAuxiliaryEstimation:
    def test_missing_class_rejected(self, world):
        train, test = world
        partial = test.subset(np.flatnonzero(test.ys != 3))
        net = mlp(64, 10, seed=33)
        with pytest.raises(ValueError, match="no samples of class 3"):
            estimate_params_auxiliary(*held_out(net, partial), partial, 8)

    def test_logits_that_are_not_a_matrix_rejected(self, world):
        _, test = world
        logits, penultimate = held_out(mlp(64, 10, seed=34), test)
        with pytest.raises(ValueError, match=r"logits must be \(B, n\)"):
            estimate_params_auxiliary(logits[:, 0], penultimate, test, 8)

    def test_logits_and_activations_of_different_lengths_rejected(self, world):
        _, test = world
        logits, penultimate = held_out(mlp(64, 10, seed=35), test)
        with pytest.raises(ValueError, match="1000 logit rows but 999 penultimate rows"):
            estimate_params_auxiliary(logits, penultimate[1:], test, 8)

    def test_forward_pass_of_another_set_rejected(self, world):
        _, test = world
        logits, penultimate = held_out(mlp(64, 10, seed=36), test)
        with pytest.raises(ValueError, match="999 forward rows for 1000 auxiliary samples"):
            estimate_params_auxiliary(logits[1:], penultimate[1:], test, 8)

    @pytest.mark.parametrize("batch_size", [2, 8, 32, 128])
    def test_calibrated_gradients_track_label_counts(self, world, batch_size):
        # pooled Pearson correlation between g - s and the label counts
        train, test = world
        from llg_lab.metrics import pearson
        calibrated, lam = [], []
        for trial in range(60):
            rng = np.random.default_rng(2000 + trial)
            net = mlp(64, 10, seed=2100 + trial)
            xs, ys = make_batch(train, BatchSpec(batch_size, "unbalanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            params = estimate_params_auxiliary(*held_out(net, test), test, batch_size)
            calibrated.extend(update.last_layer().g - params.offsets)
            lam.extend(LabelMultiset.from_labels(ys, 10).counts)
        rho = pearson(np.array(calibrated), np.array(lam, dtype=float))
        assert abs(rho) > 0.95

    def test_auxiliary_beats_shared_only_on_paired_trials(self, world):
        train, test = world
        aux_scores, shared_scores = [], []
        for trial in range(100):
            rng = np.random.default_rng(3000 + trial)
            net = mlp(64, 10, seed=3100 + trial)
            xs, ys = make_batch(train, BatchSpec(32, "unbalanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            truth = LabelMultiset.from_labels(ys, 10)
            last = update.last_layer()
            plus = estimate_params_auxiliary(*held_out(net, test), test, 32)
            aux_scores.append(attack_success_rate(llg_extract(last, plus), truth))
            base = AttackParams(estimate_impact_shared(last), np.zeros(10))
            shared_scores.append(attack_success_rate(llg_extract(last, base), truth))
        assert np.mean(aux_scores) >= np.mean(shared_scores)


class TestExtraction:
    def test_hand_traced_run(self):
        # g = [-0.4, 0.1, 0.2], impact -0.5, offsets 0, |D| = 2:
        # step 1 takes label 1 and bumps g_1 to 0.1; the argmin over
        # [0.1, 0.1, 0.2] ties and resolves to label 1 again
        last = last_from_g([-0.4, 0.1, 0.2], 2)
        params = AttackParams(-0.5, np.zeros(3))
        extracted = llg_extract(last, params)
        assert extracted == LabelMultiset(np.array([2, 0, 0]))

    def test_negative_count_equal_to_sample_count_saturates_step_one(self):
        last = last_from_g([-0.3, 0.4, -0.2, 0.9], 2)
        params = AttackParams(-1.0, np.zeros(4))
        assert llg_extract(last, params) == LabelMultiset(np.array([1, 0, 1, 0]))

    def test_offsets_shift_the_argmin(self):
        last = last_from_g([0.5, 0.4, 0.45], 1)
        params = AttackParams(-1.0, np.array([0.0, 0.0, 0.3]))
        # calibrated g = [0.5, 0.4, 0.15] so label 3 wins
        assert llg_extract(last, params) == LabelMultiset(np.array([0, 0, 1]))

    def test_non_finite_gradient_rejected(self):
        matrix = np.array([[np.inf], [0.0]])
        last = LastLayerGradient(matrix, 1)
        with pytest.raises(ValueError, match="non-finite"):
            llg_extract(last, AttackParams(-1.0, np.zeros(2)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_output_cardinality_always_matches_sample_count(self, data):
        n = data.draw(st.integers(2, 12), label="n")
        d = data.draw(st.integers(1, 40), label="d")
        values = st.floats(-1e3, 1e3)
        g = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="g"))
        offsets = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        impact = data.draw(values, label="impact")
        assert llg_extract(last_from_g(g, d), AttackParams(impact, offsets)).total == d

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scale_equivariance(self, data):
        # a power-of-two factor scales every intermediate value exactly, so
        # the extraction must not change at all; values stay far from the
        # subnormal range, where scaling would round
        n = data.draw(st.integers(2, 10), label="n")
        d = data.draw(st.integers(1, 20), label="d")
        values = st.floats(-10, 10).map(lambda x: x if abs(x) >= 1e-6 else 0.0)
        g = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="g"))
        s = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="s"))
        m = -data.draw(st.floats(1e-6, 10), label="-impact")
        factor = 2.0 ** data.draw(st.integers(-8, 8), label="log2 factor")
        base = llg_extract(last_from_g(g, d), AttackParams(m, s))
        scaled = llg_extract(last_from_g(g * factor, d),
                             AttackParams(m * factor, s * factor))
        assert base == scaled

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_class_permutation_equivariance(self, data):
        # permuting head rows and offsets permutes the extracted labels alike
        n = data.draw(st.integers(2, 12), label="n")
        d = data.draw(st.integers(1, 40), label="d")
        whole = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        shifts = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        ranks = np.array(data.draw(st.permutations(range(n))))
        perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
        scale = 2.0 ** data.draw(st.integers(-4, 4), label="scale")
        # with impact -scale, entries whose fractional parts (in units of
        # scale) differ never meet, so no argmin ties: ties go to the lowest
        # index and are not equivariant
        g = (whole + (ranks + 0.5) / n) * scale
        offsets = shifts * scale
        # more negatives than |D| end step 1 by index, also not equivariant
        assume(np.count_nonzero(g < 0) <= d)
        base = llg_extract(last_from_g(g, d), AttackParams(-scale, offsets))
        permuted = llg_extract(last_from_g(g[perm], d), AttackParams(-scale, offsets[perm]))
        assert np.array_equal(permuted.counts, base.counts[perm])

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_masked_step_one_matches_the_label_loop(self, data):
        # |D| up to n, so that more entries than |D| can be negative, as
        # they are on obfuscated gradients; entries rounded to whole numbers
        # tie; impacts cover -1e-20, zero and positive values
        n = data.draw(st.integers(2, 12), label="n")
        d = data.draw(st.integers(1, n), label="d")
        rounded = data.draw(st.booleans(), label="rounded")
        values = st.floats(-10, 10).map(round if rounded else float).map(float)
        g = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="g"))
        offsets = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        impact = data.draw(st.sampled_from([-1e-20, 0.0]) | st.floats(-10, 10), label="impact")
        params = AttackParams(impact, offsets)
        extracted = llg_extract(last_from_g(g, d), params)
        assert np.array_equal(extracted.counts, looped_extract(g, params, d))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sorted_step_three_matches_the_label_loop(self, data):
        # |D| up to 1,300, as gamma·B reaches in FedAvg, so that step 3
        # makes many picks; whole-number entries and impacts force ties,
        # and tiny impacts leave the entries they are subtracted from as
        # they were
        n = data.draw(st.integers(1, 12), label="n")
        d = data.draw(st.integers(1, 1300), label="d")
        rounded = data.draw(st.booleans(), label="rounded")
        values = st.floats(-10, 10).map(round if rounded else float).map(float)
        g = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="g"))
        offsets = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
        impact = data.draw(st.sampled_from([-1e-20, -1e-17, 0.0, -0.0, 1e-20, -0.5, -1.0, 2.0])
                           | st.floats(-10, 10) | st.floats(-1e-15, 1e-15), label="impact")
        params = AttackParams(impact, offsets)
        extracted = llg_extract(last_from_g(g, d), params)
        assert np.array_equal(extracted.counts, looped_extract(g, params, d))

    def test_step_one_only_emits_present_labels(self, world):
        # zero violations allowed: a negative row sum proves membership
        train, _ = world
        checked = 0
        for trial in range(250):
            rng = np.random.default_rng(5000 + trial)
            if trial % 2 == 0:
                net = mlp(64, 10, seed=5100 + trial)
            else:
                net = small_cnn((8, 8), 10, seed=5100 + trial)
            batch_size = (2, 8, 32, 128)[trial % 4]
            xs, ys = make_batch(train, BatchSpec(batch_size, "balanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            counts = LabelMultiset.from_labels(ys, 10).counts
            g = update.last_layer().g
            for i in np.flatnonzero(g < 0):
                checked += 1
                assert counts[i] > 0
        assert checked > 100

    def test_one_estimate_serves_fedsgd_and_fedavg_updates(self, world):
        # the estimate depends on the model and B alone; each extraction
        # takes |D| from its gradient: B under FedSGD, gamma·B under FedAvg
        train, test = world
        net = mlp(64, 10, seed=6050)
        params = estimate_params_auxiliary(*held_out(net, test), test, 8)
        spec = BatchSpec(8, "unbalanced")
        xs, ys = make_batch(train, spec, np.random.default_rng(6051))
        sgd = local_train_fedsgd(net, xs, ys)
        [(avg, _)] = local_train_fedavg(net, [train], spec, 4, 0.1,
                                        [np.random.default_rng(6052)])
        assert llg_extract(sgd.last_layer(), params).total == 8
        assert llg_extract(avg.last_layer(), params).total == 32

    def test_end_to_end_recovers_small_batches(self, world):
        train, test = world
        exact = 0
        for trial in range(100):
            rng = np.random.default_rng(6000 + trial)
            net = mlp(64, 10, seed=6100 + trial)
            xs, ys = make_batch(train, BatchSpec(8, "unbalanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            truth = LabelMultiset.from_labels(ys, 10)
            params = estimate_params_auxiliary(*held_out(net, test), test, 8)
            if llg_extract(update.last_layer(), params) == truth:
                exact += 1
        assert exact >= 95


class TestRandomGuess:
    def test_single_class_always_succeeds(self):
        guess = random_guess(1, 5, np.random.default_rng(0))
        assert guess == LabelMultiset(np.array([5]))

    def test_total_always_matches(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 200))
            assert random_guess(n, d, rng).total == d

    def test_monte_carlo_matches_enumeration(self):
        # exhaustive oracle for n=3, |D|=2: expected overlap of two
        # independent uniform label pairs
        n, d = 3, 2
        total = 0.0
        combos = 0
        for truth in itertools.product(range(1, n + 1), repeat=d):
            t = LabelMultiset.from_labels(np.array(truth), n)
            for guess in itertools.product(range(1, n + 1), repeat=d):
                gm = LabelMultiset.from_labels(np.array(guess), n)
                total += attack_success_rate(gm, t)
                combos += 1
        expected = total / combos
        rng = np.random.default_rng(2)
        observed = np.mean([
            attack_success_rate(random_guess(n, d, rng), random_guess(n, d, rng))
            for _ in range(10_000)
        ])
        assert observed == pytest.approx(expected, abs=0.02)


class TestAttackOrdering:
    def test_more_knowledge_never_hurts_on_average(self, world):
        train, test = world
        scores = {"llg_plus": [], "llg": [], "random": []}
        for trial in range(100):
            rng = np.random.default_rng(7000 + trial)
            net = mlp(64, 10, seed=7100 + trial)
            xs, ys = make_batch(train, BatchSpec(32, "unbalanced"), rng)
            update = local_train_fedsgd(net, xs, ys)
            truth = LabelMultiset.from_labels(ys, 10)
            last = update.last_layer()
            plus = estimate_params_auxiliary(*held_out(net, test), test, 32)
            scores["llg_plus"].append(attack_success_rate(llg_extract(last, plus), truth))
            base = AttackParams(estimate_impact_shared(last), np.zeros(10))
            scores["llg"].append(attack_success_rate(llg_extract(last, base), truth))
            scores["random"].append(attack_success_rate(random_guess(10, 32, rng), truth))
        assert np.mean(scores["llg_plus"]) >= np.mean(scores["llg"]) + 0.05
        assert np.mean(scores["llg"]) >= np.mean(scores["random"]) + 0.05


class TestParams:
    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            AttackParams(float("nan"), np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            AttackParams(-1.0, np.array([0.0, np.inf]))
