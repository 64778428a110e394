"""Engine tests: forward/backward against independent oracles, loss
gradients against term-by-term summation, SGD mechanics, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from llg_lab.nn import (
    Activation,
    Conv2D,
    Dense,
    Flatten,
    Gradients,
    LastLayerGradient,
    Network,
    cross_entropy_loss,
    mlp,
    output_gradient,
    sigmoid,
    small_cnn,
    softmax,
)


def zero_dense(in_dim, out_dim):
    layer = Dense(in_dim, out_dim, np.random.default_rng(0))
    layer.W[:] = 0.0
    layer.b[:] = 0.0
    return layer


def single_dense_net(in_dim, out_dim):
    return Network([zero_dense(in_dim, out_dim)], out_dim, (in_dim,))


class TestForward:
    def test_zero_weights_give_zero_logits(self):
        net = single_dense_net(3, 2)
        logits, _ = net.forward(np.array([[1.0, -2.0, 5.0]]))
        assert np.array_equal(logits, np.zeros((1, 2)))

    def test_identity_matrix_passes_input_through(self):
        net = single_dense_net(2, 2)
        net.head.W[:] = np.eye(2)
        logits, _ = net.forward(np.array([[3.0, 4.0]]))
        assert np.array_equal(logits, np.array([[3.0, 4.0]]))

    def test_matches_hand_rolled_forward(self):
        # independent oracle: plain python loops over the same parameters
        net = mlp(4, 3, hidden=5, seed=123)
        x = np.random.default_rng(7).random((2, 4))
        logits, _ = net.forward(x)

        w1, b1 = net.layers[0].W, net.layers[0].b
        w2, b2 = net.layers[2].W, net.layers[2].b
        for k in range(2):
            hidden = []
            for j in range(5):
                z = b1[j]
                for i in range(4):
                    z += w1[j, i] * x[k, i]
                hidden.append(1.0 / (1.0 + math.exp(-z)))
            for c in range(3):
                y = b2[c]
                for j in range(5):
                    y += w2[c, j] * hidden[j]
                assert logits[k, c] == pytest.approx(y, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        net = mlp(4, 3, seed=0)
        with pytest.raises(ValueError, match="does not match input shape"):
            net.forward(np.zeros((2, 5)))

    def test_non_finite_input_rejected(self):
        net = mlp(4, 3, seed=0)
        bad = np.zeros((1, 4))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            net.forward(bad)

    def test_cache_exposes_penultimate_activations(self):
        net = mlp(4, 3, hidden=5, seed=1)
        x = np.random.default_rng(0).random((6, 4))
        _, cache = net.forward(x)
        assert cache.penultimate.shape == (6, 5)
        assert np.all(cache.penultimate >= 0)  # sigmoid output


def two_branch_sigmoid(x):
    """Reference logistic: each sign's formula on its own gathered part of
    x, scattered back."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SIGMOID_ELEMENTS = st.one_of(
    st.floats(-1e4, 1e4),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4]),
)


class TestSigmoid:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), layout=st.sampled_from(["contiguous", "transposed", "strided"]))
    def test_matches_the_two_branch_formula_bit_for_bit(self, data, layout):
        shape = data.draw(array_shapes(min_dims=2, max_dims=4, max_side=6))
        if layout == "strided":
            base = data.draw(arrays(np.float64, shape[:-1] + (2 * shape[-1],),
                                    elements=SIGMOID_ELEMENTS))
            x = base[..., ::2]
        else:
            x = data.draw(arrays(np.float64, shape, elements=SIGMOID_ELEMENTS))
            if layout == "transposed":
                x = x.T
        expected = two_branch_sigmoid(x)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(x)
        assert got.shape == x.shape
        assert not np.shares_memory(got, x)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.isnan(got), np.isnan(x))


class TestCrossEntropy:
    def test_uniform_softmax_single_sample(self):
        loss, d = cross_entropy_loss(np.array([[0.0, 0.0]]), [1])
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)
        assert d == pytest.approx([-0.5, 0.5], rel=1e-12)

    def test_opposite_labels_cancel(self):
        loss, d = cross_entropy_loss(np.zeros((2, 2)), [1, 2])
        assert d == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_matches_term_by_term_summation(self):
        # brute-force oracle: -lam_i/B + (1/B) sum_k softmax_i(sample k)
        logits = np.array([
            [0.3, -1.2, 0.8],
            [2.0, 0.1, -0.4],
            [-0.7, 0.5, 0.2],
            [1.1, 1.1, -2.0],
        ])
        labels = [1, 1, 2, 3]
        _, d = cross_entropy_loss(logits, labels)
        batch, n = logits.shape
        for i in range(n):
            lam = sum(1 for c in labels if c == i + 1)
            acc = 0.0
            for k in range(batch):
                exps = [math.exp(v) for v in logits[k]]
                acc += exps[i] / sum(exps)
            expected = -lam / batch + acc / batch
            assert d[i] == pytest.approx(expected, rel=1e-12)

    def test_d_equals_output_gradient_column_sums(self):
        logits = np.random.default_rng(3).normal(size=(5, 4))
        labels = [1, 4, 2, 2, 3]
        _, d = cross_entropy_loss(logits, labels)
        per_sample = output_gradient(logits, labels)
        assert d == pytest.approx(per_sample.sum(axis=0), rel=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[1, 2\]"):
            cross_entropy_loss(np.zeros((1, 2)), [3])
        with pytest.raises(ValueError, match=r"labels must lie in \[1, 2\]"):
            cross_entropy_loss(np.zeros((1, 2)), [0])

    def test_softmax_is_stable_for_large_logits(self):
        p = softmax(np.array([[1000.0, 1000.0]]))
        assert p == pytest.approx(np.array([[0.5, 0.5]]), rel=1e-12)


class TestBackward:
    def test_zero_output_gradient_gives_zero_parameter_gradients(self):
        net = mlp(4, 3, seed=5)
        x = np.random.default_rng(1).random((2, 4))
        _, cache = net.forward(x)
        grads = net.backward(cache, np.zeros((2, 3)))
        assert all(not arr.any() for arr in grads.arrays())

    def test_single_sample_head_gradient_is_rank_one(self):
        # with one sample, head row i must equal d_i * penultimate exactly
        net = mlp(4, 3, seed=9)
        x = np.random.default_rng(2).random((1, 4))
        logits, cache = net.forward(x)
        dlogits = output_gradient(logits, [2])
        grads = net.backward(cache, dlogits)
        expected = np.outer(dlogits[0], cache.penultimate[0])
        assert grads.head[0] == pytest.approx(expected, rel=1e-12)

    def test_stale_cache_rejected(self):
        net = mlp(4, 3, seed=5)
        x = np.random.default_rng(1).random((2, 4))
        logits, cache = net.forward(x)
        net.sgd_step(net.backward(cache, output_gradient(logits, [1, 2])), 0.1)
        with pytest.raises(ValueError, match="stale"):
            net.backward(cache, np.zeros((2, 3)))

    @pytest.mark.parametrize("build", [
        lambda: mlp(6, 3, hidden=7, seed=11),
        lambda: mlp(5, 4, hidden=4, seed=12, activation="relu"),
        lambda: small_cnn((6, 6), 3, channels=2, seed=13),
        lambda: small_cnn((7, 7), 4, channels=3, seed=14, activation="relu"),
    ])
    def test_matches_central_finite_differences(self, build):
        net = build()
        rng = np.random.default_rng(99)
        flat = int(np.prod(net.input_shape))
        x = rng.random((3, flat))
        labels = rng.integers(1, net.n_classes + 1, size=3)
        frac = finite_difference_agreement(net, x, labels)
        assert frac >= 0.99

    def test_output_gradient_shape_mismatch_rejected(self):
        net = mlp(4, 3, seed=5)
        _, cache = net.forward(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="does not match"):
            net.backward(cache, np.zeros((2, 4)))


def finite_difference_agreement(net, x, labels, step=1e-4, tol=1e-3):
    """Fraction of parameters whose backward gradient matches a central
    finite difference of the loss within relative tolerance."""
    logits, cache = net.forward(x)
    grads = net.backward(cache, output_gradient(logits, labels))
    total = 0
    good = 0
    for layer, entry in zip(net.layers, grads.by_layer):
        if entry is None:
            continue
        for param, grad in ((layer.W, entry[0]), (layer.b, entry[1])):
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = param[idx]
                param[idx] = original + step
                up, _ = cross_entropy_loss(net.forward(x)[0], labels)
                param[idx] = original - step
                down, _ = cross_entropy_loss(net.forward(x)[0], labels)
                param[idx] = original
                fd = (up - down) / (2.0 * step)
                an = grad[idx]
                total += 1
                if abs(fd - an) <= tol * max(abs(fd), abs(an), 1e-6):
                    good += 1
    return good / total


def per_layer_sgd_step(arrays, grads, eta):
    # the update sgd_step made before parameters were packed: one in-place
    # subtraction per separate W and b; kept as the oracle
    for arr, grad in zip(arrays, grads.arrays(), strict=True):
        arr -= eta * grad


def hand_made_net(seed):
    rng = np.random.default_rng(seed)
    layers = [Conv2D(2, 3, 2, 2, rng), Activation("relu"), Flatten(),
              Dense(27, 6, rng), Activation("sigmoid"), Dense(6, 4, rng)]
    return Network(layers, 4, (2, 6, 6))


def param_arrays(net):
    return [arr for layer in net.layers if hasattr(layer, "W")
            for arr in (layer.W, layer.b)]


class TestSgdStep:
    @settings(deadline=None, max_examples=60)
    @given(model=st.sampled_from(["mlp", "cnn", "hand"]),
           seed=st.integers(0, 2**32 - 1),
           eta=st.floats(0.0, 10.0),
           steps=st.integers(1, 3))
    def test_matches_the_per_layer_update_bit_for_bit(self, model, seed, eta, steps):
        net = {"mlp": lambda: mlp(12, 5, hidden=7, seed=seed),
               "cnn": lambda: small_cnn((7, 7), 5, channels=3, seed=seed),
               "hand": lambda: hand_made_net(seed)}[model]()
        rng = np.random.default_rng(seed)
        oracle = [arr.copy() for arr in param_arrays(net)]
        for _ in range(steps):
            size = net.params.size
            values = rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size=size)
            grads = Gradients.zeros_for(net).like(values)
            per_layer_sgd_step(oracle, grads, eta)
            net.sgd_step(grads, eta)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(param_arrays(net), oracle))
        assert all(np.shares_memory(arr, net.params) for arr in param_arrays(net))

    @pytest.mark.parametrize("make", [lambda: mlp(4, 3, seed=5),
                                      lambda: small_cnn((6, 6), 3, channels=2, seed=5),
                                      lambda: hand_made_net(5)])
    def test_parameters_are_views_and_copies_share_nothing(self, make):
        net = make()
        assert net.params.dtype == np.float64
        assert net.params.size == sum(arr.size for arr in param_arrays(net))
        assert all(np.shares_memory(arr, net.params) for arr in param_arrays(net))
        clone = net.copy()
        assert np.array_equal(clone.params, net.params)
        assert clone.layout == net.layout
        assert all(np.shares_memory(arr, clone.params) for arr in param_arrays(clone))
        for mine in [net.params, *param_arrays(net)]:
            for theirs in [clone.params, *param_arrays(clone)]:
                assert not np.shares_memory(mine, theirs)

    def test_construction_keeps_the_layers_initial_values(self):
        rng = np.random.default_rng(8)
        layers = [Dense(3, 4, rng), Activation("relu"), Dense(4, 2, rng)]
        before = [arr.copy() for layer in (layers[0], layers[2]) for arr in (layer.W, layer.b)]
        net = Network(layers, 2, (3,))
        assert np.array_equal(net.params, np.concatenate([a.ravel() for a in before]))

    def test_gradient_of_another_layout_rejected(self):
        net = mlp(4, 3, hidden=5, seed=5)
        (w_shape, b_shape), *rest = net.layout
        # the same number of entries, the first weight matrix flattened
        other = [(np.zeros(math.prod(w_shape)), np.zeros(b_shape))]
        other += [None if s is None else (np.zeros(s[0]), np.zeros(s[1])) for s in rest]
        grads = Gradients(other)
        assert grads.vector.size == net.params.size
        before = net.params.copy()
        with pytest.raises(ValueError, match="gradient shapes do not match layer parameters"):
            net.sgd_step(grads, 0.1)
        assert np.array_equal(net.params, before) and net._version == 0

    def test_zero_learning_rate_leaves_network_unchanged(self):
        net = mlp(4, 3, seed=5)
        before = [arr.copy() for layer in net.layers if hasattr(layer, "W")
                  for arr in (layer.W, layer.b)]
        x = np.random.default_rng(1).random((2, 4))
        logits, cache = net.forward(x)
        net.sgd_step(net.backward(cache, output_gradient(logits, [1, 2])), 0.0)
        after = [arr for layer in net.layers if hasattr(layer, "W")
                 for arr in (layer.W, layer.b)]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_scalar_update_arithmetic(self):
        net = single_dense_net(1, 2)
        net.head.W[:] = 1.0
        grads = Gradients([(np.full((2, 1), 2.0), np.zeros(2))])
        net.sgd_step(grads, 0.1)
        assert net.head.W == pytest.approx(np.full((2, 1), 0.8), rel=1e-15)

    def test_small_step_reduces_loss(self):
        net = mlp(6, 3, seed=21)
        rng = np.random.default_rng(4)
        x = rng.random((8, 6))
        labels = rng.integers(1, 4, size=8)
        logits, cache = net.forward(x)
        before, _ = cross_entropy_loss(logits, labels)
        net.sgd_step(net.backward(cache, output_gradient(logits, labels)), 0.05)
        after, _ = cross_entropy_loss(net.forward(x)[0], labels)
        assert after <= before

    def test_negative_learning_rate_rejected(self):
        net = mlp(4, 3, seed=5)
        with pytest.raises(ValueError, match=">= 0"):
            net.sgd_step(Gradients.zeros_for(net), -0.1)


class TestConstructionRules:
    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            single_dense_net(4, 1)

    def test_final_layer_must_be_dense(self):
        with pytest.raises(ValueError, match="final layer must be dense"):
            Network([Activation("sigmoid")], 2, (4,))

    def test_head_width_must_match_class_count(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="expected 3"):
            Network([Dense(4, 2, rng)], 3, (4,))

    def test_dense_feeding_head_without_activation_rejected(self):
        rng = np.random.default_rng(0)
        layers = [Dense(4, 5, rng), Dense(5, 3, rng)]
        with pytest.raises(ValueError, match="non-negative activation"):
            Network(layers, 3, (4,))

    def test_conv_feeding_head_through_flatten_needs_activation(self):
        rng = np.random.default_rng(0)
        layers = [Conv2D(1, 2, 3, 1, rng), Flatten(), Dense(2 * 16, 3, rng)]
        with pytest.raises(ValueError, match="non-negative activation"):
            Network(layers, 3, (1, 6, 6))

    def test_unknown_activation_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            Activation("tanh")

    def test_kernel_larger_than_input_rejected(self):
        net = small_cnn((6, 6), 3, channels=2, seed=0)
        assert net.h == 2 * 2 * 2
        with pytest.raises(ValueError, match="smaller than kernel"):
            Conv2D(1, 2, 9, 1, np.random.default_rng(0)).output_hw(6, 6)


class TestLastLayerGradient:
    def test_row_sums_computed_exactly(self):
        matrix = np.random.default_rng(0).normal(size=(4, 7))
        last = LastLayerGradient(matrix, 3)
        assert np.array_equal(last.g, matrix.sum(axis=1))

    def test_sample_count_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            LastLayerGradient(np.zeros((2, 2)), 0)


class TestPackedGradients:
    def test_l2_norm_sums_per_array_in_layer_order(self):
        # the clipping factor, and with it the CSV bytes, rests on this float
        # order; one sum over the packed vector rounds differently
        rng = np.random.default_rng(31)
        reordered = 0
        for seed in range(20):
            net = mlp(16, 10, seed=seed) if seed % 2 else small_cnn((8, 8), 10, seed=seed)
            x = rng.random((8, math.prod(net.input_shape)))
            logits, cache = net.forward(x)
            grads = net.backward(cache, output_gradient(logits, rng.integers(1, 11, size=8)))
            total = 0.0
            for arr in [a.copy() for a in grads.arrays()]:
                total += float((arr * arr).sum())
            assert grads.l2_norm() == math.sqrt(total)
            reordered += float(np.sqrt((grads.vector * grads.vector).sum())) != math.sqrt(total)
        assert reordered > 0  # the check can tell the two orders apart


class TestDeterminismAndSigns:
    def test_same_seed_is_bit_identical(self):
        x = np.random.default_rng(8).random((4, 6))
        labels = [1, 2, 3, 1]
        runs = []
        for _ in range(2):
            net = mlp(6, 3, hidden=9, seed=77)
            logits, cache = net.forward(x)
            grads = net.backward(cache, output_gradient(logits, labels))
            runs.append((logits, [a.copy() for a in grads.arrays()]))
        assert np.array_equal(runs[0][0], runs[1][0])
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(mlp(6, 3, seed=1).head.W, mlp(6, 3, seed=2).head.W)

    def test_single_sample_sign_linkage(self):
        # with one sample, the head row sums share d's signs whenever the
        # penultimate activations have a strictly positive entry
        for trial in range(50):
            rng = np.random.default_rng(1000 + trial)
            act = "sigmoid" if trial % 2 == 0 else "relu"
            net = mlp(5, 4, hidden=6, seed=2000 + trial, activation=act)
            x = rng.normal(size=(1, 5))
            logits, cache = net.forward(x)
            label = int(rng.integers(1, 5))
            dlogits = output_gradient(logits, [label])
            if not (cache.penultimate > 0).any():
                continue
            g = net.backward(cache, dlogits).head[0].sum(axis=1)
            d = dlogits.sum(axis=0)
            assert np.array_equal(np.sign(g), np.sign(d))

    def test_copy_is_independent(self):
        net = mlp(4, 3, seed=5)
        clone = net.copy()
        clone.head.W[:] = 0.0
        assert net.head.W.any()
