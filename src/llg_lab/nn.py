"""Minimal neural-network engine: dense/conv layers, softmax cross-entropy,
manual backpropagation, and SGD.

Everything is float64. Parameter initialization is a pure function of the
seed, and forward/backward contain no hidden randomness, so identical seeds
give bit-identical runs. Parameters and inputs may share leading axes, a
stack of K networks (`Network.replicas`): slice c of each result has the
bits the unstacked network gives for slice c.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .labels import at_least_one, integer_labels

__all__ = [
    "Activation",
    "Cache",
    "Conv2D",
    "Dense",
    "Flatten",
    "Gradients",
    "LastLayerGradient",
    "Network",
    "mlp",
    "output_gradient",
    "sigmoid",
    "small_cnn",
    "softmax",
    "softmax_residual",
]


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite values")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, this is 1/(1+e) where x >= 0
    and e/(1+e) elsewhere: the same operations, element for element, as
    evaluating each sign's formula on its own part of x. Since e <= 1, the
    numerator is max(e, x >= 0): 1 where x >= 0 and e elsewhere, with NaN
    kept. So one unmasked divide serves both signs; a masked ufunc
    (`where=`) runs a slow per-element loop, and gathering either part
    costs a copy. It works in place on the output plus one temporary.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.maximum(out, x >= 0, out=out)
    np.divide(out, denom, out=out)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Dense:
    """Affine layer y = x @ W.T + b with W of shape (out_dim, in_dim).

    Row i of W holds the weights into output unit i, so the weight-gradient
    row for class i is exactly the per-class vector the leakage analysis
    operates on.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = 1.0 / np.sqrt(in_dim)
        self.W = rng.uniform(-bound, bound, size=(out_dim, in_dim))
        self.b = rng.uniform(-bound, bound, size=out_dim)

    def forward(self, x):
        if x.ndim != self.W.ndim or x.shape[-1] != self.W.shape[-1]:
            raise ValueError(
                f"dense layer expects (B, {self.W.shape[-1]}), got {x.shape}"
            )
        y = x @ self.W.swapaxes(-1, -2)
        y += self.b[..., None, :]
        return y, x

    def backward(self, cache, dy, input_grad: bool = True):
        """(dx, (dW, db)); dx is None when input_grad is False."""
        x = cache
        dW = dy.swapaxes(-1, -2) @ x
        db = dy.sum(axis=-2)
        dx = dy @ self.W if input_grad else None
        return dx, (dW, db)


# the largest client or probe batch (fl.VALID_BATCH_SIZES): Network.infer
# runs the per-sample layers of larger batches, such as a held-out set, in
# blocks of this many samples, whose temporaries stay in cache
_SAMPLE_BLOCK = 128


@functools.cache
def _patch_index(channels: int, h: int, w: int, k: int, s: int) -> np.ndarray:
    """Read-only (ho*wo, C*k*k) flat indices into a channels-last (H, W, C)
    image: entry [i*wo + j, (c*k + di)*k + dj] is
    ((i*s + di)*W + (j*s + dj))*C + c, the element (c, i*s + di, j*s + dj)."""
    ho, wo = (h - k) // s + 1, (w - k) // s + 1
    i = np.arange(ho).reshape(ho, 1, 1, 1, 1)
    j = np.arange(wo).reshape(1, wo, 1, 1, 1)
    c = np.arange(channels).reshape(1, 1, channels, 1, 1)
    di = np.arange(k).reshape(1, 1, 1, k, 1)
    dj = np.arange(k).reshape(1, 1, 1, 1, k)
    idx = ((i * s + di) * w + (j * s + dj)) * channels + c
    idx = idx.reshape(ho * wo, channels * k * k)
    idx.setflags(write=False)
    return idx


class Conv2D:
    """Valid (unpadded) 2-D convolution over NCHW batches."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int, rng: np.random.Generator):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        fan_in = in_channels * kernel * kernel
        bound = 1.0 / np.sqrt(fan_in)
        self.W = rng.uniform(-bound, bound,
                             size=(out_channels, in_channels, kernel, kernel))
        self.b = rng.uniform(-bound, bound, size=out_channels)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        k, s = self.kernel, self.stride
        if h < k or w < k:
            raise ValueError(f"input {h}x{w} is smaller than kernel {k}x{k}")
        return (h - k) // s + 1, (w - k) // s + 1

    def forward(self, x):
        if x.ndim != self.W.ndim or x.shape[-3] != self.in_channels:
            raise ValueError(
                f"conv layer expects (B, {self.in_channels}, H, W), got {x.shape}"
            )
        *batch, channels, h, w = x.shape
        ho, wo = self.output_hw(h, w)
        # Reading x channels-last costs nothing on the hot path: this layer's
        # output and the sigmoid after it are channels-last views, and a
        # C = 1 input is contiguous either way; any other layout is copied
        # once. The cache keeps this (..., B, H*W*C) input, not the patches.
        flat_x = np.moveaxis(x, -3, -1).reshape(*batch, -1)
        # W as (out, C*k*k) after an axis of one for the batch
        flat_w = self.W.reshape(*self.W.shape[:-4], 1, self.out_channels, -1)
        # a stacked matmul: each sample's (ho*wo, C*k*k) patches times flat_w
        # on their own, so a sample's bits do not depend on the batch
        out = self._patches(flat_x, channels, h, w) @ flat_w.swapaxes(-1, -2)
        out += self.b[..., None, None, :]
        out = out.swapaxes(-1, -2).reshape(*batch, self.out_channels, ho, wo)
        return out, (x.shape, flat_x)

    def _patches(self, flat_x, channels: int, h: int, w: int) -> np.ndarray:
        """im2col as one gather of cached flat indices: row i*wo + j of a
        sample's patches is the k x k window at output pixel (i, j), its
        columns in the (c, di, dj) order of flat_w. The gather only copies
        values, into a fresh C-contiguous (..., B, ho*wo, C*k*k) array."""
        return flat_x.take(_patch_index(channels, h, w, self.kernel, self.stride), axis=-1)

    def backward(self, cache, dy, input_grad: bool = True):
        """(dx, (dW, db)); dx is None when input_grad is False."""
        x_shape, flat_x = cache
        *batch, channels, h, w = x_shape
        patches = self._patches(flat_x, channels, h, w)
        k, s = self.kernel, self.stride
        ho, wo = self.output_hw(h, w)
        dy_flat = dy.reshape(*batch, self.out_channels, ho * wo)
        # dW sums samples and pixels as one (out, B*ho*wo) @ (B*ho*wo, C*k*k)
        lead = batch[:-1]
        dy_rows = dy_flat.swapaxes(-3, -2).reshape(*lead, self.out_channels, -1)
        dW = dy_rows @ patches.reshape(*lead, -1, patches.shape[-1])
        dW = dW.reshape(self.W.shape)
        db = dy.sum(axis=(-4, -2, -1))
        if not input_grad:
            return None, (dW, db)
        flat_w = self.W.reshape(*self.W.shape[:-4], 1, self.out_channels, -1)
        dpatches = dy_flat.swapaxes(-1, -2) @ flat_w
        dpat = np.moveaxis(dpatches.reshape(*batch, ho, wo, channels, k, k), -3, -5)
        dx = np.zeros(x_shape)
        for di in range(k):
            for dj in range(k):
                dx[..., di:di + s * ho:s, dj:dj + s * wo:s] += dpat[..., di, dj]
        return dx, (dW, db)


class Flatten:
    """Reshape feature maps (..., B, C, H, W) to (..., B, C*H*W); parameter-free."""

    def forward(self, x):
        return x.reshape(*x.shape[:-3], -1), x.shape

    def backward(self, cache, dy):
        return dy.reshape(cache), None


class Activation:
    """Elementwise nonlinearity; both supported kinds have range in [0, 1] or [0, inf)."""

    KINDS = ("sigmoid", "relu")

    def __init__(self, kind: str):
        if kind not in self.KINDS:
            raise ValueError(f"unknown activation kind {kind!r}; use one of {self.KINDS}")
        self.kind = kind

    def forward(self, x):
        if self.kind == "sigmoid":
            y = sigmoid(x)
            return y, y
        return np.maximum(x, 0.0), x

    def backward(self, cache, dy):
        if self.kind == "sigmoid":
            y = cache
            dx = dy * y
            dx *= 1.0 - y
            return dx, None
        return dy * (cache > 0), None


def _views(vector: np.ndarray, layout: tuple) -> list:
    """Per-layer (W, b)-shaped views into a packed vector, None for layers
    without parameters; layout holds each layer's (W shape, b shape) or None,
    after the vector's leading axes."""
    views: list = []
    pos = 0
    for shapes in layout:
        if shapes is None:
            views.append(None)
            continue
        pair = []
        for shape in shapes:
            size = math.prod(shape)
            pair.append(vector[..., pos:pos + size].reshape(*vector.shape[:-1], *shape))
            pos += size
        views.append(tuple(pair))
    return views


class Gradients:
    """Parameter gradients of a network: one float64 vector in the network's
    `layout`, the order of its `params`.

    Whole-gradient arithmetic is one operation on the vector, (k, P) for k
    replicas. by_layer holds (dW, db) views into it for parameterized layers
    and None otherwise, built when first read, so writing to a view writes
    to the vector.
    """

    def __init__(self, vector: np.ndarray, layout: tuple):
        self.vector = vector
        self.layout = layout

    @functools.cached_property
    def by_layer(self) -> list:
        return _views(self.vector, self.layout)

    def like(self, vector: np.ndarray) -> "Gradients":
        """Gradients with this layout over the given vector (not copied)."""
        return Gradients(vector, self.layout)

    def arrays(self):
        for entry in self.by_layer:
            if entry is not None:
                yield entry[0]
                yield entry[1]

    def copy(self) -> "Gradients":
        return self.like(self.vector.copy())

    def add_(self, other: "Gradients") -> "Gradients":
        self.vector += other.vector
        return self

    def scaled(self, factor: float) -> "Gradients":
        return self.like(self.vector * factor)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.vector @ self.vector))

    @property
    def head(self):
        """(dW, db) of the final dense layer."""
        return self.by_layer[-1]

    @classmethod
    def zeros_for(cls, net: "Network") -> "Gradients":
        return cls(np.zeros_like(net.params), net.layout)


@dataclass
class LastLayerGradient:
    """Weight gradient of the final dense layer plus its per-class row sums.

    g[i] is the sum of row i of the matrix, computed on construction; bias
    gradients are deliberately not part of g.
    """

    matrix: np.ndarray
    sample_count: int
    g: np.ndarray = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.sample_count = at_least_one(self.sample_count, "sample_count")
        if self.matrix.ndim != 2:
            raise ValueError(f"matrix must be (n, h), got shape {self.matrix.shape}")
        self.g = self.matrix.sum(axis=1)

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]


@dataclass
class Cache:
    """Activation record from one forward pass; consumed by the matching backward."""

    version: int
    batch_size: int
    layer_caches: list
    penultimate: np.ndarray  # input to the final dense layer, shape (..., B, h)


class Network:
    """Ordered layer stack ending in a dense classification head.

    Construction enforces the structure the leakage analysis relies on: at
    least two classes, a dense head with one row per class, and (when any
    layer feeds the head) a non-negative activation directly before it,
    flattens aside.

    Every W and b lives in one float64 vector `params`, in layer order, with
    the same `layout` as the network's Gradients. Construction copies the
    layers' parameters into it and rebinds each layer's W and b to views of
    it, so write parameters in place (`W[:] = ...`): assigning a new array
    to `layer.W` detaches it from the network. `replicas(k)` stacks k copies
    as one network with (k, P) params; it takes (k, B, ...) batches.
    """

    def __init__(self, layers: list, n_classes: int, input_shape: tuple):
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        if not layers or not isinstance(layers[-1], Dense):
            raise ValueError("the final layer must be dense")
        head = layers[-1]
        if head.W.shape[0] != n_classes:
            raise ValueError(
                f"final dense layer emits {head.W.shape[0]} scores, expected {n_classes}"
            )
        for layer in reversed(layers[:-1]):
            if isinstance(layer, Flatten):
                continue
            if not isinstance(layer, Activation):
                raise ValueError(
                    "the layer feeding the classification head must be a "
                    "non-negative activation (sigmoid or relu)"
                )
            break
        self.layers = list(layers)
        self.n_classes = n_classes
        self.input_shape = tuple(input_shape)
        self._version = 0  # bumped on every parameter update; invalidates caches
        self.layout = tuple((layer.W.shape, layer.b.shape) if hasattr(layer, "W")
                            else None for layer in self.layers)
        arrays = [arr for layer in self.layers if hasattr(layer, "W")
                  for arr in (layer.W, layer.b)]
        self._bind(np.concatenate(arrays, axis=None, dtype=np.float64))

    def _bind(self, params: np.ndarray) -> None:
        self.params = params
        for layer, views in zip(self.layers, _views(params, self.layout)):
            if views is not None:
                layer.W, layer.b = views

    @property
    def head(self) -> Dense:
        return self.layers[-1]

    def copy(self) -> "Network":
        """An independent network: parameterized layers are shallow clones
        rebound to a copy of `params`; parameter-free layers are shared."""
        return self._clone(self.params.copy())

    def replicas(self, k: int) -> "Network":
        """An independent stack of k copies: (k, P) `params`, (k, ...) W and
        b views, and row c of every batch, output and gradient is copy c's."""
        return self._clone(np.tile(self.params, (k, 1)))

    def _clone(self, params: np.ndarray) -> "Network":
        clone = object.__new__(Network)
        vars(clone).update(vars(self))
        clone.layers = [layer if shapes is None else _shallow(layer)
                        for layer, shapes in zip(self.layers, self.layout)]
        clone._bind(params)
        return clone

    def _shape_batch(self, batch) -> np.ndarray:
        x = np.asarray(batch, dtype=np.float64)
        lead = self.params.shape[:-1]
        axes = len(lead) + 1  # the leading axes and the batch axis
        if x.ndim == axes + 1 and x.shape[-1] == math.prod(self.input_shape):
            x = x.reshape(*x.shape[:axes], *self.input_shape)
        if x.shape[:len(lead)] == lead and x.shape[axes:] == self.input_shape:
            return x
        raise ValueError(
            f"batch of shape {x.shape} does not match input shape {self.input_shape}"
        )

    def forward(self, batch) -> tuple[np.ndarray, Cache]:
        x = self._shape_batch(batch)
        _require_finite(x, "input batch")
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        _require_finite(x, "logits")
        # the dense head caches its own input, i.e. the penultimate activations
        return x, Cache(self._version, x.shape[-2], caches, caches[-1])

    def infer(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """(logits, penultimate): forward's logits and cache.penultimate, bit
        for bit, for a pass that no backward reads, keeping no layer caches.

        The layers before the first dense one act on each sample alone (a
        conv layer's stacked matmul multiplies each sample's patches on their
        own), so they run on blocks of _SAMPLE_BLOCK samples. The dense
        layers run once over the whole batch, since a GEMM's bits depend on
        its row count; an MLP, whose first layer is dense, is not blocked.
        """
        x = self._shape_batch(batch)
        _require_finite(x, "input batch")
        first_dense = next(i for i, layer in enumerate(self.layers) if isinstance(layer, Dense))
        if first_dense:
            axis = self.params.ndim - 1  # the batch axis
            blocks = np.split(x, range(_SAMPLE_BLOCK, x.shape[axis], _SAMPLE_BLOCK), axis=axis)
            # the first dense layer takes (..., B, d)
            x = np.concatenate([_forward_only(self.layers[:first_dense], block)
                                for block in blocks], axis=-2)
        penultimate = _forward_only(self.layers[first_dense:-1], x)
        logits = _forward_only(self.layers[-1:], penultimate)
        _require_finite(logits, "logits")
        return logits, penultimate

    def backward(self, cache: Cache, dlogits: np.ndarray) -> Gradients:
        if cache.version != self._version:
            raise ValueError("stale activation cache: parameters changed since forward")
        d = np.asarray(dlogits, dtype=np.float64)
        lead = self.params.shape[:-1]
        if d.shape != (*lead, cache.batch_size, self.n_classes):
            raise ValueError(
                f"output gradient of shape {d.shape} does not match "
                f"{(*lead, cache.batch_size, self.n_classes)}"
            )
        # nothing reads the gradient of the network's input, so the walk
        # stops at the first parameterized layer and asks it for none
        first = next(i for i, shapes in enumerate(self.layout) if shapes is not None)
        by_layer: list = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, first, -1):
            d, by_layer[i] = self.layers[i].backward(cache.layer_caches[i], d)
        _, by_layer[first] = self.layers[first].backward(cache.layer_caches[first], d,
                                                         input_grad=False)
        vector = np.concatenate([arr.reshape(*lead, -1) for grads in by_layer
                                 if grads is not None for arr in grads],
                                axis=-1, dtype=np.float64)
        _require_finite(vector, "parameter gradient")
        return Gradients(vector, self.layout)

    def sgd_step(self, grads: Gradients, eta: float) -> "Network":
        """params <- params - eta * grads, i.e. W <- W - eta * dW for every
        parameter; invalidates existing caches."""
        if not 0 <= eta < np.inf:  # NaN fails too
            raise ValueError(f"learning rate must be finite and >= 0, got {eta}")
        if grads.layout != self.layout:
            raise ValueError("gradient shapes do not match layer parameters")
        self.params -= eta * grads.vector
        self._version += 1
        return self


def _forward_only(layers: list, x: np.ndarray) -> np.ndarray:
    for layer in layers:
        x, _ = layer.forward(x)
    return x


def _shallow(layer):
    clone = object.__new__(type(layer))
    vars(clone).update(vars(layer))
    return clone


def softmax_residual(logits: np.ndarray, labels) -> np.ndarray:
    """softmax(z) − one-hot(y), shape (B, n) or (..., B, n) for (..., B) labels:
    row k is the gradient of sample k's own cross-entropy w.r.t. its logits."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2:
        raise ValueError(f"logits must be (B, n), got shape {z.shape}")
    idx = integer_labels(labels, z.shape[-1])
    if idx.shape != z.shape[:-1]:
        raise ValueError(f"expected labels of shape {z.shape[:-1]}, got shape {idx.shape}")
    p = softmax(z)
    rows = p.reshape(-1, z.shape[-1])  # a view: softmax returns a fresh array
    rows[np.arange(len(rows)), idx.ravel() - 1] -= 1.0
    return p


def output_gradient(logits: np.ndarray, labels) -> np.ndarray:
    """Per-sample gradient of the batch-mean cross-entropy w.r.t. the logits,
    softmax_residual / B: shape (B, n), or (..., B, n) for (..., B) labels.
    Its column sums are the gradient of the loss w.r.t. each class's summed
    output score.
    """
    residual = softmax_residual(logits, labels)
    return residual / residual.shape[-2]


def mlp(input_dim: int, n_classes: int, hidden: int = 64, seed: int = 0,
        activation: str = "sigmoid") -> Network:
    """Two-layer perceptron: dense -> activation -> dense head."""
    rng = np.random.default_rng(seed)
    layers = [
        Dense(input_dim, hidden, rng),
        Activation(activation),
        Dense(hidden, n_classes, rng),
    ]
    return Network(layers, n_classes, (input_dim,))


def small_cnn(input_hw: tuple[int, int], n_classes: int, channels: int = 8,
              kernel: int = 3, stride: int = 1, seed: int = 0,
              activation: str = "sigmoid") -> Network:
    """Two conv layers followed by a dense head on the flattened maps."""
    h, w = input_hw
    rng = np.random.default_rng(seed)
    conv1 = Conv2D(1, channels, kernel, stride, rng)
    h1, w1 = conv1.output_hw(h, w)
    conv2 = Conv2D(channels, channels, kernel, stride, rng)
    h2, w2 = conv2.output_hw(h1, w1)
    layers = [
        conv1,
        Activation(activation),
        conv2,
        Activation(activation),
        Flatten(),
        Dense(channels * h2 * w2, n_classes, rng),
    ]
    return Network(layers, n_classes, (1, h, w))
