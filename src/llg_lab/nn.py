"""Minimal neural-network engine: dense/conv layers, softmax cross-entropy,
manual backpropagation, and SGD.

Everything is float64. Parameter initialization is a pure function of the
seed, and forward/backward contain no hidden randomness, so identical seeds
give bit-identical runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Activation",
    "Cache",
    "Conv2D",
    "Dense",
    "Flatten",
    "Gradients",
    "LastLayerGradient",
    "Network",
    "cross_entropy_loss",
    "mlp",
    "output_gradient",
    "sigmoid",
    "small_cnn",
    "softmax",
]


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|), which never overflows, this is 1/(1+e) where x >= 0
    and e/(1+e) elsewhere: the same operations, element for element, as
    evaluating each sign's formula on its own part of x. It works in place
    on the output plus one temporary, without gathering either part.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.abs(x, out=np.empty_like(x))
    np.negative(out, out=out)
    np.exp(out, out=out)
    denom = out + 1.0
    np.divide(out, denom, out=out)
    np.divide(1.0, denom, out=out, where=x >= 0)
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
        if x.ndim != 2 or x.shape[1] != self.W.shape[1]:
            raise ValueError(
                f"dense layer expects (B, {self.W.shape[1]}), got {x.shape}"
            )
        return x @ self.W.T + self.b, x

    def backward(self, cache, dy):
        x = cache
        dW = dy.T @ x
        db = dy.sum(axis=0)
        dx = dy @ self.W
        return dx, (dW, db)


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
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"conv layer expects (B, {self.in_channels}, H, W), got {x.shape}"
            )
        batch, _, h, w = x.shape
        k, s = self.kernel, self.stride
        ho, wo = self.output_hw(h, w)
        # (B, C, H-k+1, W-k+1, k, k) windows, subsampled by the stride
        win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        win = win[:, :, ::s, ::s]
        patches = win.transpose(0, 2, 3, 1, 4, 5).reshape(batch, ho * wo, -1)
        flat_w = self.W.reshape(self.out_channels, -1)
        out = patches @ flat_w.T + self.b
        out = out.transpose(0, 2, 1).reshape(batch, self.out_channels, ho, wo)
        return out, (x.shape, patches)

    def backward(self, cache, dy):
        x_shape, patches = cache
        batch, channels, h, w = x_shape
        k, s = self.kernel, self.stride
        ho, wo = self.output_hw(h, w)
        dy_flat = dy.reshape(batch, self.out_channels, ho * wo).transpose(0, 2, 1)
        dW = np.tensordot(dy_flat, patches, axes=([0, 1], [0, 1]))
        dW = dW.reshape(self.W.shape)
        db = dy.sum(axis=(0, 2, 3))
        dpatches = dy_flat @ self.W.reshape(self.out_channels, -1)
        dpat = dpatches.reshape(batch, ho, wo, channels, k, k)
        dx = np.zeros(x_shape)
        for di in range(k):
            for dj in range(k):
                dx[:, :, di:di + s * ho:s, dj:dj + s * wo:s] += (
                    dpat[:, :, :, :, di, dj].transpose(0, 3, 1, 2)
                )
        return dx, (dW, db)


class Flatten:
    """Reshape (B, ...) to (B, -1); parameter-free."""

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

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
            return dy * y * (1.0 - y), None
        return dy * (cache > 0), None


def _views(vector: np.ndarray, layout: tuple) -> list:
    """Per-layer (W, b)-shaped views into a packed vector, None for layers
    without parameters; layout holds each layer's (W shape, b shape) or None."""
    views: list = []
    pos = 0
    for shapes in layout:
        if shapes is None:
            views.append(None)
            continue
        pair = []
        for shape in shapes:
            size = math.prod(shape)
            pair.append(vector[pos:pos + size].reshape(shape))
            pos += size
        views.append(tuple(pair))
    return views


class Gradients:
    """Per-layer parameter gradients, aligned with a network's layer list and
    packed into one float64 vector.

    by_layer entries are (dW, db) views into `vector` for parameterized
    layers and None otherwise, so writing to a view writes to the vector and
    whole-gradient arithmetic is one operation on the vector. `layout` holds
    each entry's (dW shape, db shape) or None, as `Network.layout` does for
    the network's `params`.
    """

    def __init__(self, by_layer: list):
        layout = tuple(None if entry is None else (entry[0].shape, entry[1].shape)
                       for entry in by_layer)
        arrays = [arr for entry in by_layer if entry is not None for arr in entry]
        self._pack(np.concatenate(arrays, axis=None, dtype=np.float64), layout)

    def _pack(self, vector: np.ndarray, layout: tuple) -> None:
        self.vector = vector
        self.layout = layout
        self.by_layer = _views(vector, layout)

    @classmethod
    def _over(cls, vector: np.ndarray, layout: tuple) -> "Gradients":
        out = object.__new__(cls)
        out._pack(vector, layout)
        return out

    def like(self, vector: np.ndarray) -> "Gradients":
        """Gradients with this layout over the given vector (not copied)."""
        return self._over(vector, self.layout)

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

    def scale_(self, factor: float) -> "Gradients":
        self.vector *= factor
        return self

    def scaled(self, factor: float) -> "Gradients":
        return self.like(self.vector * factor)

    def l2_norm(self) -> float:
        # per-array partial sums, not one sum over the vector: the float
        # order fixes the clipping factor, and with it the CSV bytes
        total = sum(float((arr * arr).sum()) for arr in self.arrays())
        return float(np.sqrt(total))

    @property
    def head(self):
        """(dW, db) of the final dense layer."""
        return self.by_layer[-1]

    @classmethod
    def zeros_for(cls, net: "Network") -> "Gradients":
        return cls._over(np.zeros_like(net.params), net.layout)


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
        self.sample_count = int(self.sample_count)
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
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
    penultimate: np.ndarray  # input to the final dense layer, shape (B, h)


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
    to `layer.W` detaches it from the network.
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
        self.h = head.W.shape[1]
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
        clone = object.__new__(Network)
        vars(clone).update(vars(self))
        clone.layers = [layer if shapes is None else _shallow(layer)
                        for layer, shapes in zip(self.layers, self.layout)]
        clone._bind(self.params.copy())
        return clone

    def _shape_batch(self, batch) -> np.ndarray:
        x = np.asarray(batch, dtype=np.float64)
        flat = int(np.prod(self.input_shape))
        if x.ndim == 2 and x.shape[1] == flat:
            return x.reshape(x.shape[0], *self.input_shape)
        if x.ndim == 1 + len(self.input_shape) and x.shape[1:] == self.input_shape:
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
        return x, Cache(self._version, x.shape[0], caches, caches[-1])

    def backward(self, cache: Cache, dlogits: np.ndarray) -> Gradients:
        if cache.version != self._version:
            raise ValueError("stale activation cache: parameters changed since forward")
        d = np.asarray(dlogits, dtype=np.float64)
        if d.shape != (cache.batch_size, self.n_classes):
            raise ValueError(
                f"output gradient of shape {d.shape} does not match "
                f"({cache.batch_size}, {self.n_classes})"
            )
        by_layer: list = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            d, grads = self.layers[i].backward(cache.layer_caches[i], d)
            by_layer[i] = grads
        result = Gradients(by_layer)
        _require_finite(result.vector, "parameter gradient")
        return result

    def sgd_step(self, grads: Gradients, eta: float) -> "Network":
        """params <- params - eta * grads, i.e. W <- W - eta * dW for every
        parameter; invalidates existing caches."""
        if eta < 0:
            raise ValueError("learning rate must be >= 0")
        if grads.layout != self.layout:
            raise ValueError("gradient shapes do not match layer parameters")
        self.params -= eta * grads.vector
        self._version += 1
        return self


def _shallow(layer):
    clone = object.__new__(type(layer))
    vars(clone).update(vars(layer))
    return clone


def _check_labels(labels, n_classes: int, batch_size: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (batch_size,):
        raise ValueError(f"expected {batch_size} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 1 or labels.max() > n_classes):
        raise ValueError(f"labels must lie in [1, {n_classes}]")
    return labels.astype(np.int64)


def output_gradient(logits: np.ndarray, labels) -> np.ndarray:
    """Per-sample gradient of the batch-mean cross-entropy w.r.t. the logits.

    Shape (B, n). Its column sums are the aggregate per-class gradient
    returned by cross_entropy_loss.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be (B, n), got shape {z.shape}")
    batch_size, n = z.shape
    idx = _check_labels(labels, n, batch_size)
    p = softmax(z)
    p[np.arange(batch_size), idx - 1] -= 1.0
    return p / batch_size


def cross_entropy_loss(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Batch-mean softmax cross-entropy over one-hot labels in [1, n].

    Returns (loss, d) where d[i] = -count(i)/B + mean_k softmax_i(sample k),
    the gradient of the loss w.r.t. class i's summed output score. d[i] is
    negative exactly when label i occurs more often than the model currently
    expects.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be (B, n), got shape {z.shape}")
    batch_size, n = z.shape
    idx = _check_labels(labels, n, batch_size)
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(batch_size), idx - 1].mean())
    counts = np.bincount(idx - 1, minlength=n)
    d = np.exp(logp).mean(axis=0) - counts / batch_size
    return loss, d


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
