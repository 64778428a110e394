"""Engine tests: forward/backward against independent oracles, loss
gradients against term-by-term summation, SGD mechanics, determinism."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from llg_lab.labels import integer_labels
from llg_lab.nn import (
    Activation,
    Conv2D,
    Dense,
    Flatten,
    Gradients,
    LastLayerGradient,
    Network,
    _patch_index,
    mlp,
    output_gradient,
    sigmoid,
    small_cnn,
    softmax,
    softmax_residual,
)


def cross_entropy_loss(logits, labels):
    """Batch-mean softmax cross-entropy over one-hot labels in [1, n].

    Returns (loss, d) where d[i] = -count(i)/B + mean_k softmax_i(sample k),
    the gradient of the loss w.r.t. class i's summed output score: the
    oracle of output_gradient's column sums and of finite differences.
    """
    z = np.asarray(logits, dtype=np.float64)
    batch_size, n = z.shape
    idx = integer_labels(labels, n)
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(batch_size), idx - 1].mean())
    counts = np.bincount(idx - 1, minlength=n)
    d = np.exp(logp).mean(axis=0) - counts / batch_size
    return loss, d


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


def laid_out(data, shape, layout, elements):
    """An array of the given shape, drawn C-contiguous, as the transpose of
    a drawn array, or as every other column of a drawn array."""
    if layout == "transposed":
        return data.draw(arrays(np.float64, shape[::-1], elements=elements)).T
    if layout == "strided":
        wide = data.draw(arrays(np.float64, shape[:-1] + (2 * shape[-1],), elements=elements))
        return wide[..., ::2]
    return data.draw(arrays(np.float64, shape, elements=elements))


LAYOUTS = st.sampled_from(["contiguous", "transposed", "strided"])
FINITE = st.floats(-1e3, 1e3)
SIGMOID_ELEMENTS = st.one_of(
    st.floats(-1e4, 1e4),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4]),
)


def conv_input(data, shape, layout):
    """A (B, C, H, W) array in one of laid_out's layouts or as the
    channels-last view that Conv2D and sigmoid outputs are."""
    if layout == "channels_last":
        batch, channels, h, w = shape
        drawn = data.draw(arrays(np.float64, (batch, h, w, channels), elements=FINITE))
        return drawn.transpose(0, 3, 1, 2)
    return laid_out(data, shape, layout, FINITE)


def stacked_maps(data, shape, layout):
    """A (..., C, H, W) array, C-contiguous or as a channels-last view."""
    if layout == "channels_last":
        drawn = data.draw(arrays(np.float64, shape[:-3] + shape[-2:] + shape[-3:-2],
                                 elements=FINITE))
        return np.moveaxis(drawn, -1, -3)
    return data.draw(arrays(np.float64, shape, elements=FINITE))


def sliding_window_patches(x, k, s):
    """The im2col copy the gather replaced: every k x k window, subsampled
    by the stride, one row per output pixel and (c, di, dj) columns."""
    batch, _, h, w = x.shape
    ho, wo = (h - k) // s + 1, (w - k) // s + 1
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(batch, ho * wo, -1)


def cached_patches(layer, cache):
    """The patch matrix of a Conv2D forward, gathered from the channels-last
    input its cache holds."""
    (*_, channels, h, w), flat_x = cache
    return flat_x.take(_patch_index(channels, h, w, layer.kernel, layer.stride), axis=-1)


def whole_batch_conv(layer, x, dy):
    """Conv2D forward and backward through one patch matrix for the whole
    batch, written out apart from the layer: (out, dx, dW, db)."""
    *batch, channels, h, w = x.shape
    k, s = layer.kernel, layer.stride
    ho, wo = layer.output_hw(h, w)
    patches = np.moveaxis(x, -3, -1).reshape(*batch, -1).take(
        _patch_index(channels, h, w, k, s), axis=-1)
    flat_w = layer.W.reshape(*layer.W.shape[:-4], 1, layer.out_channels, -1)
    out = patches @ flat_w.swapaxes(-1, -2) + layer.b[..., None, None, :]
    out = out.swapaxes(-1, -2).reshape(*batch, layer.out_channels, ho, wo)
    dy_flat = dy.reshape(*batch, layer.out_channels, ho * wo)
    lead = batch[:-1]
    dy_rows = dy_flat.swapaxes(-3, -2).reshape(*lead, layer.out_channels, -1)
    dW = (dy_rows @ patches.reshape(*lead, -1, patches.shape[-1])).reshape(layer.W.shape)
    db = dy.sum(axis=(-4, -2, -1))
    dpatches = dy_flat.swapaxes(-1, -2) @ flat_w
    dpat = np.moveaxis(dpatches.reshape(*batch, ho, wo, channels, k, k), -3, -5)
    dx = np.zeros(x.shape)
    for di in range(k):
        for dj in range(k):
            dx[..., di:di + s * ho:s, dj:dj + s * wo:s] += dpat[..., di, dj]
    return out, dx, dW, db


def normal_maps(rng, shape, layout):
    """A (..., C, H, W) array of normal draws: C-contiguous, the transpose
    of a C-contiguous array, or a channels-last view."""
    if layout == "transposed":
        return rng.normal(size=shape[::-1]).T
    if layout == "channels_last":
        return np.moveaxis(rng.normal(size=shape[:-3] + shape[-2:] + shape[-3:-2]), -1, -3)
    return rng.normal(size=shape)


class TestSigmoid:
    @settings(deadline=None, max_examples=200)
    @given(data=st.data(), layout=LAYOUTS)
    def test_matches_the_two_branch_formula_bit_for_bit(self, data, layout):
        shape = data.draw(array_shapes(min_dims=2, max_dims=4, max_side=6))
        x = laid_out(data, shape, layout, SIGMOID_ELEMENTS)
        expected = two_branch_sigmoid(x)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(x)
        assert got.shape == x.shape
        assert not np.shares_memory(got, x)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(np.isnan(got), np.isnan(x))


class TestLayerKernels:
    """The forward bias adds and the sigmoid backward work in place on a
    fresh temporary, and the conv patches are one gather per block of
    samples; each must give the bits of the expression it replaced."""

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), layout=LAYOUTS, batch=st.integers(1, 9),
           dims=st.tuples(st.integers(1, 12), st.integers(1, 12)), seed=st.integers(0, 99))
    def test_dense_forward_matches_the_affine_expression_bit_for_bit(
            self, data, layout, batch, dims, seed):
        layer = Dense(*dims, np.random.default_rng(seed))
        x = laid_out(data, (batch, dims[0]), layout, FINITE)
        expected = x @ layer.W.T + layer.b
        y, cache = layer.forward(x)
        assert cache is x
        assert np.array_equal(y, expected)
        assert not any(np.shares_memory(y, arr) for arr in (x, layer.W, layer.b))

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), layout=LAYOUTS, batch=st.integers(1, 4),
           channels=st.tuples(st.integers(1, 3), st.integers(1, 4)),
           hw=st.tuples(st.integers(3, 8), st.integers(3, 8)),
           kernel=st.integers(1, 3), stride=st.integers(1, 2), seed=st.integers(0, 99))
    def test_conv_forward_matches_the_affine_expression_bit_for_bit(
            self, data, layout, batch, channels, hw, kernel, stride, seed):
        layer = Conv2D(*channels, kernel, stride, np.random.default_rng(seed))
        x = laid_out(data, (batch, channels[0], *hw), layout, FINITE)
        out, cache = layer.forward(x)
        x_shape, patches = cache[0], cached_patches(layer, cache)
        flat_w = layer.W.reshape(layer.out_channels, -1)
        ho, wo = layer.output_hw(*hw)
        expected = (patches @ flat_w.T + layer.b).transpose(0, 2, 1).reshape(
            batch, layer.out_channels, ho, wo)
        assert x_shape == x.shape
        assert np.array_equal(out, expected)
        assert not any(np.shares_memory(out, arr) for arr in (x, patches, layer.W, layer.b))

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(),
           layout=st.sampled_from(["contiguous", "transposed", "strided", "channels_last"]),
           batch=st.integers(1, 4), channels=st.integers(1, 4),
           hw=st.tuples(st.integers(3, 9), st.integers(3, 9)),
           kernel=st.integers(1, 3), stride=st.integers(1, 2))
    def test_conv_patches_match_the_sliding_window_copy_bit_for_bit(
            self, data, layout, batch, channels, hw, kernel, stride):
        layer = Conv2D(channels, 2, kernel, stride, np.random.default_rng(0))
        x = conv_input(data, (batch, channels, *hw), layout)
        misses = _patch_index.cache_info().misses
        _, cache = layer.forward(x)
        patches = cached_patches(layer, cache)
        again = cached_patches(layer, layer.forward(x)[1])
        assert _patch_index.cache_info().misses <= misses + 1
        assert np.array_equal(patches, sliding_window_patches(x, kernel, stride))
        assert np.array_equal(again, patches)
        assert patches.flags.c_contiguous
        assert not np.shares_memory(patches, x)
        idx = _patch_index(channels, *hw, kernel, stride)
        assert not idx.flags.writeable
        assert _patch_index(channels, *hw, kernel, stride) is idx

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), layout=LAYOUTS,
           shape=array_shapes(min_dims=2, max_dims=4, max_side=6))
    def test_sigmoid_backward_matches_the_product_bit_for_bit(self, data, layout, shape):
        y = laid_out(data, shape, layout, st.floats(0.0, 1.0))
        dy = laid_out(data, shape, data.draw(LAYOUTS), st.floats(-1e6, 1e6))
        expected = dy * y * (1.0 - y)
        dx, none = Activation("sigmoid").backward(y, dy)
        assert none is None
        assert np.array_equal(dx, expected)
        assert not np.shares_memory(dx, y) and not np.shares_memory(dx, dy)


    # A (K, ...) stack of layers on (K, ...) inputs: slice c of every output
    # must be the bits layer c gives on input slice c.

    @staticmethod
    def stack_of(layers):
        stacked = copy.copy(layers[0])
        stacked.W = np.stack([layer.W for layer in layers])
        stacked.b = np.stack([layer.b for layer in layers])
        return stacked

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), stack=st.integers(1, 5), batch=st.integers(1, 9),
           dims=st.tuples(st.integers(1, 12), st.integers(1, 12)), seed=st.integers(0, 99))
    def test_stacked_dense_matches_its_slices_bit_for_bit(self, data, stack, batch, dims, seed):
        rng = np.random.default_rng(seed)
        layers = [Dense(*dims, rng) for _ in range(stack)]
        dense = self.stack_of(layers)
        x = data.draw(arrays(np.float64, (stack, batch, dims[0]), elements=FINITE))
        dy = data.draw(arrays(np.float64, (stack, batch, dims[1]), elements=FINITE))
        y, cache = dense.forward(x)
        dx, (dW, db) = dense.backward(cache, dy)
        assert y.shape == (stack, batch, dims[1]) and dW.shape == dense.W.shape
        for c, layer in enumerate(layers):
            y_c, cache_c = layer.forward(x[c])
            dx_c, (dW_c, db_c) = layer.backward(cache_c, dy[c])
            for got, expected in ((y, y_c), (dx, dx_c), (dW, dW_c), (db, db_c)):
                assert np.array_equal(got[c], expected)

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), layout=st.sampled_from(["contiguous", "channels_last"]),
           stack=st.integers(1, 4), batch=st.integers(1, 4),
           channels=st.tuples(st.integers(1, 3), st.integers(1, 4)),
           hw=st.tuples(st.integers(3, 8), st.integers(3, 8)),
           kernel=st.integers(1, 3), stride=st.integers(1, 2), seed=st.integers(0, 99))
    def test_stacked_conv_matches_its_slices_bit_for_bit(
            self, data, layout, stack, batch, channels, hw, kernel, stride, seed):
        rng = np.random.default_rng(seed)
        layers = [Conv2D(*channels, kernel, stride, rng) for _ in range(stack)]
        conv = self.stack_of(layers)
        ho, wo = conv.output_hw(*hw)
        x = stacked_maps(data, (stack, batch, channels[0], *hw), layout)
        dy = stacked_maps(data, (stack, batch, channels[1], ho, wo), data.draw(
            st.sampled_from(["contiguous", "channels_last"])))
        out, cache = conv.forward(x)
        dx, (dW, db) = conv.backward(cache, dy)
        assert out.shape == (stack, batch, channels[1], ho, wo) and dW.shape == conv.W.shape
        for c, layer in enumerate(layers):
            out_c, cache_c = layer.forward(x[c])
            dx_c, (dW_c, db_c) = layer.backward(cache_c, dy[c])
            patches_c = cached_patches(layer, cache_c)
            assert np.array_equal(cached_patches(conv, cache)[c], patches_c)
            # the dW product replaced this tensordot, on the same operands
            dy_flat = dy[c].reshape(batch, channels[1], ho * wo).transpose(0, 2, 1)
            assert np.array_equal(dW_c.reshape(channels[1], -1), np.tensordot(
                dy_flat, patches_c, axes=([0, 1], [0, 1])))
            for got, expected in ((out, out_c), (dx, dx_c), (dW, dW_c), (db, db_c)):
                assert np.array_equal(got[c], expected)

    @settings(deadline=None, max_examples=60)
    @given(layout=st.sampled_from(["contiguous", "transposed", "channels_last"]),
           dy_layout=st.sampled_from(["contiguous", "channels_last"]),
           stack=st.sampled_from([None, 1, 3]),
           batch=st.one_of(st.integers(1, 300), st.sampled_from([127, 128, 129, 256, 257])),
           channels=st.tuples(st.integers(1, 2), st.integers(1, 3)),
           hw=st.tuples(st.integers(3, 5), st.integers(3, 5)),
           kernel=st.integers(1, 3), stride=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
    def test_conv_matches_the_whole_batch_patches_bit_for_bit(
            self, layout, dy_layout, stack, batch, channels, hw, kernel, stride, seed):
        # backward regathers the patches from the cached input
        rng = np.random.default_rng(seed)
        lead = () if stack is None else (stack,)
        layers = [Conv2D(*channels, kernel, stride, rng) for _ in range(stack or 1)]
        conv = layers[0] if stack is None else self.stack_of(layers)
        ho, wo = conv.output_hw(*hw)
        x = normal_maps(rng, (*lead, batch, channels[0], *hw), layout)
        dy = normal_maps(rng, (*lead, batch, channels[1], ho, wo), dy_layout)
        out, cache = conv.forward(x)
        dx, (dW, db) = conv.backward(cache, dy)
        x_shape, flat_x = cache
        assert x_shape == x.shape and flat_x.shape == (*lead, batch, channels[0] * hw[0] * hw[1])
        if layout == "channels_last":
            assert np.shares_memory(flat_x, x)
        for got, expected in zip((out, dx, dW, db), whole_batch_conv(conv, x, dy), strict=True):
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), kind=st.sampled_from(["sigmoid", "relu", "flatten"]),
           shape=array_shapes(min_dims=5, max_dims=5, max_side=4))
    def test_stacked_activation_and_flatten_match_their_slices_bit_for_bit(
            self, data, kind, shape):
        layer = Flatten() if kind == "flatten" else Activation(kind)
        x = stacked_maps(data, shape, data.draw(st.sampled_from(["contiguous", "channels_last"])))
        y, cache = layer.forward(x)
        dy = data.draw(arrays(np.float64, y.shape, elements=FINITE))
        dx, _ = layer.backward(cache, dy)
        assert y.shape[:2] == shape[:2] and dx.shape == shape
        for c in range(shape[0]):
            y_c, cache_c = layer.forward(x[c])
            dx_c, _ = layer.backward(cache_c, dy[c])
            assert np.array_equal(y[c], y_c) and np.array_equal(dx[c], dx_c)

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), stack=st.integers(1, 5), batch=st.integers(1, 9),
           n=st.integers(2, 10))
    def test_stacked_output_gradient_matches_its_slices_bit_for_bit(self, data, stack, batch, n):
        logits = data.draw(arrays(np.float64, (stack, batch, n), elements=FINITE))
        labels = data.draw(arrays(np.int64, (stack, batch), elements=st.integers(1, n)))
        d = output_gradient(logits, labels)
        for c in range(stack):
            assert np.array_equal(d[c], output_gradient(logits[c], labels[c]))

    @settings(deadline=None, max_examples=60)
    @given(make=st.sampled_from([
        lambda s: mlp(4, 3, hidden=5, seed=s),
        lambda s: mlp(4, 3, hidden=5, seed=s, activation="relu"),
        lambda s: small_cnn((6, 6), 3, channels=2, seed=s),
        lambda s: hand_made_net(s),
    ]), stack=st.integers(1, 5), batch=st.integers(1, 9), seed=st.integers(0, 99))
    def test_replicas_forward_and_backward_pack_like_their_slices_bit_for_bit(
            self, make, stack, batch, seed):
        nets = [make(seed + c) for c in range(stack)]
        stacked = nets[0].replicas(stack)
        stacked.params[:] = np.stack([net.params for net in nets])
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(stack, batch, math.prod(nets[0].input_shape)))
        labels = rng.integers(1, 4, size=(stack, batch))
        logits, cache = stacked.forward(x)
        grads = stacked.backward(cache, output_gradient(logits, labels))
        assert grads.vector.shape == stacked.params.shape
        assert all(np.shares_memory(arr, grads.vector) for arr in grads.arrays())
        for c, net in enumerate(nets):
            logits_c, cache_c = net.forward(x[c])
            grads_c = net.backward(cache_c, output_gradient(logits_c, labels[c]))
            assert np.array_equal(logits[c], logits_c)
            assert np.array_equal(cache.penultimate[c], cache_c.penultimate)
            assert np.array_equal(grads.vector[c], grads_c.vector)
            assert all(np.array_equal(arr[c], arr_c)
                       for arr, arr_c in zip(grads.arrays(), grads_c.arrays(), strict=True))


class TestInfer:
    """Network.infer is forward's (logits, cache.penultimate) without the
    layer caches, its per-sample layers run in blocks of 128 samples."""

    @settings(deadline=None, max_examples=60)
    @given(make=st.sampled_from([
        lambda s: mlp(4, 3, hidden=5, seed=s),
        lambda s: mlp(4, 3, hidden=5, seed=s, activation="relu"),
        lambda s: small_cnn((6, 6), 3, channels=2, seed=s),
        lambda s: small_cnn((6, 6), 3, channels=2, seed=s, activation="relu"),
        lambda s: hand_made_net(s),
        lambda s: activation_first_cnn(s),
        lambda s: flatten_first_mlp(s),
    ]), stack=st.sampled_from([None, 3]),
        batch=st.one_of(st.integers(1, 300), st.sampled_from([127, 128, 129, 256, 257])),
        seed=st.integers(0, 2**32 - 1))
    def test_infer_equals_forward_bit_for_bit(self, make, stack, batch, seed):
        # batches cross the block edges, and a stack blocks its batch axis
        net = make(seed % 100)
        if stack:
            net = net.replicas(stack)
            net.params[:] += np.random.default_rng(seed).normal(scale=0.1, size=net.params.shape)
        lead = net.params.shape[:-1]
        x = np.random.default_rng(seed).normal(size=(*lead, batch, *net.input_shape))
        logits, penultimate = net.infer(x)
        expected, cache = net.forward(x)
        assert logits.shape == expected.shape
        assert np.array_equal(logits, expected)
        assert penultimate.shape == cache.penultimate.shape
        assert np.array_equal(penultimate, cache.penultimate)

    def test_infer_rejects_what_forward_rejects(self):
        net = small_cnn((6, 6), 3, channels=2)
        with pytest.raises(ValueError, match="does not match input shape"):
            net.infer(np.zeros((200, 35)))
        bad = np.zeros((200, 36))
        bad[150, 0] = np.nan
        with pytest.raises(ValueError, match="input batch contains non-finite"):
            net.infer(bad)
        net.head.b[0] = np.inf
        with pytest.raises(ValueError, match="logits contains non-finite"):
            net.infer(np.zeros((200, 36)))


class TestConvMemory:
    def test_held_out_inference_peaks_under_4_mb(self):
        # one forward of 1,000 rows gathers 2.6 MB (conv1) and 9.2 MB
        # (conv2) of patches, and its layers' 2.3 MB outputs; infer holds
        # one 128-sample block's temporaries at a time
        net = small_cnn((8, 8), 10)
        x = np.random.default_rng(0).normal(size=(1000, 64))
        tracemalloc.start()
        try:
            logits, penultimate = net.infer(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert logits.shape == (1000, 10) and penultimate.shape == (1000, 128)
        assert peak < 4e6

    def test_forward_cache_keeps_each_conv_layers_input_not_its_patches(self):
        # patches of 1,000 rows take 2.6 MB (conv1) and 9.2 MB (conv2);
        # backward regathers them from the cached inputs
        net = small_cnn((8, 8), 10)
        x = np.random.default_rng(0).normal(size=(1000, 64))
        tracemalloc.start()
        try:
            _, cache = net.forward(x)
            held = tracemalloc.get_traced_memory()[0]
            del cache
            cache_bytes = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cache_bytes < 6e6


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

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), lead=st.sampled_from([(), (1,), (3,)]), batch=st.integers(1, 130),
           n=st.integers(2, 10))
    def test_output_gradient_is_the_softmax_residual_over_b_bit_for_bit(self, data, lead,
                                                                        batch, n):
        # (B, n) logits and stacked (K, B, n) logits alike
        logits = data.draw(arrays(np.float64, (*lead, batch, n), elements=FINITE))
        labels = data.draw(arrays(np.int64, (*lead, batch), elements=st.integers(1, n)))
        residual = softmax_residual(logits, labels)
        assert np.array_equal(residual, softmax(logits) - np.eye(n)[labels - 1])
        assert np.array_equal(output_gradient(logits, labels), residual / batch)

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


def full_chain_gradients(net, cache, dlogits):
    """Every layer's backward, each asked for its input gradient, down to
    the input; the packing of Network.backward. Kept as the oracle."""
    d, by_layer = dlogits, []
    for layer, layer_cache in zip(reversed(net.layers), reversed(cache.layer_caches)):
        d, grads = layer.backward(layer_cache, d)
        by_layer.insert(0, grads)
    lead = net.params.shape[:-1]
    return np.concatenate([arr.reshape(*lead, -1) for grads in by_layer if grads is not None
                           for arr in grads], axis=-1)


def flatten_first_mlp(seed):
    rng = np.random.default_rng(seed)
    layers = [Flatten(), Dense(16, 6, rng), Activation("sigmoid"), Dense(6, 4, rng)]
    return Network(layers, 4, (1, 4, 4))


def activation_first_cnn(seed):
    rng = np.random.default_rng(seed)
    layers = [Activation("relu"), Conv2D(1, 2, 3, 1, rng), Activation("sigmoid"), Flatten(),
              Dense(2 * 4 * 4, 4, rng)]
    return Network(layers, 4, (1, 6, 6))


class TestBackwardStopsAtTheFirstParameterizedLayer:
    """Nothing reads the input gradient, so Network.backward asks the first
    parameterized layer for none and runs no layer below it."""

    @pytest.mark.parametrize("replicas", [None, 3])
    @pytest.mark.parametrize("build", [flatten_first_mlp, activation_first_cnn,
                                       lambda seed: mlp(16, 4, hidden=5, seed=seed),
                                       lambda seed: small_cnn((6, 6), 4, channels=2, seed=seed)])
    def test_gradients_equal_the_full_chain_bit_for_bit(self, build, replicas):
        net = build(7)
        if replicas:
            net = net.replicas(replicas)
        rng = np.random.default_rng(8)
        lead = net.params.shape[:-1]
        x = rng.normal(size=(*lead, 5, *net.input_shape))
        logits, cache = net.forward(x)
        dlogits = output_gradient(logits, rng.integers(1, 5, size=(*lead, 5)))
        calls = []
        for i, layer in enumerate(net.layers):
            def spy(layer_cache, dy, *args, _i=i, _backward=layer.backward, **kwargs):
                calls.append((_i, kwargs.get("input_grad", True)))
                return _backward(layer_cache, dy, *args, **kwargs)
            layer.backward = spy
        grads = net.backward(cache, dlogits)
        first = next(i for i, layer in enumerate(net.layers) if hasattr(layer, "W"))
        assert calls == [(i, i != first) for i in range(len(net.layers) - 1, first - 1, -1)]
        for layer in net.layers:
            del layer.backward
        assert np.array_equal(grads.vector, full_chain_gradients(net, cache, dlogits))

    @pytest.mark.parametrize("layer, x", [
        (Dense(6, 3, np.random.default_rng(1)), np.random.default_rng(2).normal(size=(4, 6))),
        (Conv2D(2, 3, 3, 2, np.random.default_rng(1)),
         np.random.default_rng(2).normal(size=(4, 2, 7, 7))),
    ])
    def test_a_layer_asked_for_no_input_gradient_returns_the_same_parameter_gradients(
            self, layer, x):
        y, cache = layer.forward(x)
        dy = np.random.default_rng(3).normal(size=y.shape)
        dx, (dW, db) = layer.backward(cache, dy)
        none, (dW_only, db_only) = layer.backward(cache, dy, input_grad=False)
        assert dx.shape == x.shape and none is None
        assert np.array_equal(dW, dW_only) and np.array_equal(db, db_only)


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

    @pytest.mark.parametrize("make", [lambda: mlp(4, 3, seed=5),
                                      lambda: small_cnn((6, 6), 3, channels=2, seed=5),
                                      lambda: hand_made_net(5)])
    @pytest.mark.parametrize("k", [1, 3])
    def test_replicas_are_views_into_their_own_params(self, make, k):
        net = make()
        stack = net.replicas(k)
        assert stack.params.shape == (k, net.params.size)
        assert all(np.array_equal(row, net.params) for row in stack.params)
        assert stack.layout == net.layout
        for mine, theirs in zip(param_arrays(net), param_arrays(stack), strict=True):
            assert theirs.shape == (k, *mine.shape)
            assert np.shares_memory(theirs, stack.params)
        for mine in [net.params, *param_arrays(net)]:
            for theirs in [stack.params, *param_arrays(stack)]:
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
        grads = Gradients(np.zeros(net.params.size), (((math.prod(w_shape),), b_shape), *rest))
        assert sum(arr.size for arr in grads.arrays()) == net.params.size
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
        grads = Gradients(np.array([2.0, 2.0, 0.0, 0.0]), net.layout)
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

    @pytest.mark.parametrize("eta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_learning_rate_rejected(self, eta):
        net = mlp(4, 3, seed=5)
        before = net.params.copy()
        with pytest.raises(ValueError, match="learning rate must be finite and >= 0"):
            net.sgd_step(Gradients.zeros_for(net), eta)
        assert np.array_equal(net.params, before) and net._version == 0


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
        assert net.head.W.shape[1] == 2 * 2 * 2
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
    def test_l2_norm_agrees_with_numpy(self):
        rng = np.random.default_rng(31)
        for seed in range(20):
            net = mlp(16, 10, seed=seed) if seed % 2 else small_cnn((8, 8), 10, seed=seed)
            x = rng.random((8, math.prod(net.input_shape)))
            logits, cache = net.forward(x)
            grads = net.backward(cache, output_gradient(logits, rng.integers(1, 11, size=8)))
            np.testing.assert_allclose(grads.l2_norm(), np.linalg.norm(grads.vector),
                                       rtol=1e-14, atol=0)

    @pytest.mark.parametrize("make", [lambda: mlp(4, 3, seed=5),
                                      lambda: small_cnn((6, 6), 3, channels=2, seed=5),
                                      lambda: hand_made_net(5)])
    def test_backward_packs_in_the_network_layout_with_views(self, make):
        net = make()
        x = np.random.default_rng(3).random((2, math.prod(net.input_shape)))
        logits, cache = net.forward(x)
        grads = net.backward(cache, output_gradient(logits, [1, 3]))
        assert grads.layout is net.layout
        arrays = list(grads.arrays())
        assert [arr.shape for arr in arrays] == [arr.shape for arr in param_arrays(net)]
        assert all(np.shares_memory(arr, grads.vector) for arr in arrays)
        assert all(np.shares_memory(arr, grads.vector) for arr in grads.head)
        assert np.array_equal(np.concatenate([arr.ravel() for arr in arrays]), grads.vector)


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
