"""Client-side gradient obfuscation applied to the full shared gradient
before it leaves the device: pure Gaussian noise, norm clipping plus noise,
and magnitude-threshold compression with a cross-round residual."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .fl import RoundUpdate
from .nn import Gradients, Network


def add_gaussian_noise(grads: Gradients, sigma: float,
                       rng: np.random.Generator) -> Gradients:
    """Independent N(0, sigma^2) noise on every gradient entry."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return _noised(grads.copy(), sigma, rng)


def dp_clip_and_noise(grads: Gradients, beta: float, sigma: float,
                      rng: np.random.Generator) -> Gradients:
    """Scale the whole gradient by 1/max(1, ||grad||_2 / beta), then add
    Gaussian noise of standard deviation sigma."""
    if beta <= 0:
        raise ValueError("clipping bound beta must be positive")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return _noised(grads.scaled(1.0 / max(1.0, grads.l2_norm() / beta)), sigma, rng)


def _noised(grads: Gradients, sigma: float, rng: np.random.Generator) -> Gradients:
    # one draw over the packed vector yields the same numbers as one draw
    # per array in layer order, since the generator fills them in sequence
    if sigma > 0:
        grads.vector += rng.normal(0.0, sigma, size=grads.vector.size)
    return grads


@dataclass
class CompressionState:
    """Per-client residual accumulator for gradient compression."""

    residual: Gradients
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")

    @classmethod
    def for_network(cls, net: Network, theta: float) -> "CompressionState":
        return cls(Gradients.zeros_for(net), theta)


def compress(grads: Gradients, state: CompressionState) -> Gradients:
    """Send only prominent entries; keep the rest accumulating.

    The incoming gradient is added to the residual; entries whose magnitude
    exceeds the theta-quantile of the accumulated residual are emitted and
    zeroed there, everything else stays for later rounds. Mutates state, so
    emitted-so-far plus residual always equals the raw gradient total.
    """
    residual = state.residual.add_(grads).vector
    magnitudes = np.abs(residual)
    discard = int(np.floor(state.theta * residual.size))
    if discard == 0:
        threshold = -np.inf  # emit everything
    else:
        threshold = np.partition(magnitudes, discard - 1)[discard - 1]
    mask = magnitudes > threshold
    emitted = np.where(mask, residual, 0.0)
    residual[mask] = 0.0
    return state.residual.like(emitted)


@dataclass(frozen=True)
class DefenseSpec:
    """Declarative defense configuration for the experiment runner."""

    kind: str = "none"  # none | noise | clip_noise | compress
    sigma: float = 0.0
    beta: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        check_types(self, "defense")
        if self.kind not in ("none", "noise", "clip_noise", "compress"):
            raise ValueError(f"unknown defense kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.kind == "clip_noise" and self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.kind == "compress" and not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")

    @property
    def draws(self) -> bool:
        """Whether applying this defense draws from a random stream."""
        return self.kind in ("noise", "clip_noise")

    def label(self) -> str:
        if self.kind == "none":
            return "none"
        if self.kind == "noise":
            return f"noise(sigma={self.sigma})"
        if self.kind == "clip_noise":
            return f"clip_noise(beta={self.beta},sigma={self.sigma})"
        return f"compress(theta={self.theta})"

    @classmethod
    def from_dict(cls, raw: dict) -> "DefenseSpec":
        if not isinstance(raw, dict):
            raise ValueError(f"defense must be an object, got {type(raw).__name__}")
        check_fields(cls, raw, "defense")
        return cls(**raw)


def check_fields(cls, raw: dict, what: str) -> None:
    """Reject a key of raw that names no field of the dataclass cls."""
    unknown = set(raw) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def check_types(obj, what: str) -> None:
    """Reject a field of the dataclass instance obj whose value is not of
    the type its class declares. A bool is no number, an int is a float, and
    a tuple field takes a list or a tuple of its item type."""
    for name, hint in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if not _conforms(value, hint):
            declared = hint.__name__ if isinstance(hint, type) else hint
            raise ValueError(f"{what} field {name!r} must be {declared}, got {value!r}")


def _conforms(value, hint) -> bool:
    if hint is int or hint is float:
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    if hint is tuple or get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _conforms(item, arg) for arg in get_args(hint)[:1] for item in value)
    if get_origin(hint) is UnionType:
        return any(_conforms(value, arg) for arg in get_args(hint))
    return isinstance(value, hint)


def apply_defense(update: RoundUpdate, spec: DefenseSpec, rng: np.random.Generator | None,
                  state: CompressionState | None = None) -> RoundUpdate:
    """Obfuscate one client update according to spec. Only the kinds that
    draw (`spec.draws`) read rng; compression requires the client's
    persistent CompressionState."""
    if spec.kind == "none":
        return update
    if spec.draws and rng is None:
        raise ValueError(f"the {spec.kind} defense needs a random generator")
    if spec.kind == "noise":
        defended = add_gaussian_noise(update.gradients, spec.sigma, rng)
    elif spec.kind == "clip_noise":
        defended = dp_clip_and_noise(update.gradients, spec.beta, spec.sigma, rng)
    else:
        if state is None:
            raise ValueError("compression needs the client's CompressionState")
        if state.theta != spec.theta:
            raise ValueError(f"the CompressionState has theta={state.theta}, "
                             f"the spec theta={spec.theta}")
        defended = compress(update.gradients, state)
    return replace(update, gradients=defended)
