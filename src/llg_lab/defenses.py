"""Client-side gradient obfuscation applied to the full shared gradient
before it leaves the device: pure Gaussian noise, norm clipping plus noise,
and magnitude-threshold compression with a cross-round residual."""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .fl import RoundUpdate
from .nn import Gradients

if TYPE_CHECKING:
    from .experiments import DefenseSpec


def add_gaussian_noise(grads: Gradients, sigma: float,
                       rng: np.random.Generator) -> Gradients:
    """Independent N(0, sigma^2) noise on every gradient entry."""
    # written so that NaN fails, as DefenseSpec's rules are
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    return _noised(grads.copy(), sigma, rng)


def dp_clip_and_noise(grads: Gradients, beta: float, sigma: float,
                      rng: np.random.Generator) -> Gradients:
    """Scale the whole gradient by 1/max(1, ||grad||_2 / beta), then add
    Gaussian noise of standard deviation sigma."""
    if not beta > 0:
        raise ValueError("clipping bound beta must be positive")
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    return _noised(grads.scaled(1.0 / max(1.0, grads.l2_norm() / beta)), sigma, rng)


def _noised(grads: Gradients, sigma: float, rng: np.random.Generator) -> Gradients:
    # one draw over the packed vector yields the same numbers as one draw
    # per array in layer order, since the generator fills them in sequence
    if sigma > 0:
        grads.vector += rng.normal(0.0, sigma, size=grads.vector.size)
    return grads


def compress(grads: Gradients, residual: Gradients, theta: float) -> Gradients:
    """Send only prominent entries; keep the rest accumulating.

    The incoming gradient is added to the client's residual; entries whose
    magnitude exceeds the theta-quantile of the accumulated residual are
    emitted and zeroed there, everything else stays for later rounds.
    Mutates residual, so emitted-so-far plus residual always equals the raw
    gradient total, also when theta changes between rounds. A residual of
    another shape or layout is rejected before it is touched.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    if residual.vector.shape != grads.vector.shape or residual.layout != grads.layout:
        raise ValueError(f"residual of shape {residual.vector.shape} and layout "
                         f"{residual.layout} does not match the update's shape "
                         f"{grads.vector.shape} and layout {grads.layout}")
    accumulated = residual.add_(grads).vector
    magnitudes = np.abs(accumulated)
    discard = int(np.floor(theta * accumulated.size))
    if discard == 0:
        threshold = -np.inf  # emit everything
    else:
        threshold = np.partition(magnitudes, discard - 1)[discard - 1]
    mask = magnitudes > threshold
    emitted = np.where(mask, accumulated, 0.0)
    accumulated[mask] = 0.0
    return residual.like(emitted)


def apply_defense(update: RoundUpdate, spec: DefenseSpec, rng: np.random.Generator | None,
                  residual: Gradients | None = None) -> RoundUpdate:
    """Obfuscate one client update according to spec. Only the kinds that
    draw (`spec.draws`) read rng; compression requires the client's
    persistent residual (`Gradients.zeros_for(net)` before its first round)."""
    if spec.kind == "none":
        return update
    if spec.draws and rng is None:
        raise ValueError(f"the {spec.kind} defense needs a random generator")
    if spec.kind == "noise":
        defended = add_gaussian_noise(update.gradients, spec.sigma, rng)
    elif spec.kind == "clip_noise":
        defended = dp_clip_and_noise(update.gradients, spec.beta, spec.sigma, rng)
    else:
        if residual is None:
            raise ValueError("compression needs the client's residual")
        defended = compress(update.gradients, residual, spec.theta)
    return replace(update, gradients=defended)
