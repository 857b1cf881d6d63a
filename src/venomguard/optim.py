"""AdamW with decoupled weight decay and a warmup + cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class AdamWState:
    """Moment estimates for one flat parameter vector, updated sequentially."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 2e-5

    @classmethod
    def zeros(cls, n_params: int, **kwargs) -> "AdamWState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), **kwargs)


def adamw_step(
    params: np.ndarray, grads: np.ndarray, state: AdamWState, lr: float
) -> np.ndarray:
    """One bias-corrected Adam update with decay applied before the Adam delta.

    Returns the new parameter vector and leaves ``params`` as it was;
    ``state.m`` and ``state.v`` are updated in place and ``state.t`` is
    advanced.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads, and state must share one shape")
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    finite = np.isfinite(grads)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"non-finite gradient at index {bad}")

    state.t += 1
    # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, in this rounding order
    scaled = np.multiply(grads, 1.0 - state.beta1)
    state.m *= state.beta1
    state.m += scaled
    np.multiply(grads, 1.0 - state.beta2, out=scaled)
    scaled *= grads
    state.v *= state.beta2
    state.v += scaled

    # params (1 - lr wd) - lr m_hat / (sqrt(v_hat) + eps)
    delta = np.divide(state.m, 1.0 - state.beta1**state.t)
    delta *= lr
    np.divide(state.v, 1.0 - state.beta2**state.t, out=scaled)
    np.sqrt(scaled, out=scaled)
    scaled += state.eps
    delta /= scaled
    out = np.multiply(params, 1.0 - lr * state.weight_decay)
    out -= delta
    return out


@dataclass
class CosineSchedule:
    """Linear warmup to ``base_lr`` then cosine decay to ``final_lr``."""

    warmup_steps: int
    total_steps: int
    warmup_lr: float = 2e-7
    base_lr: float = 2e-5
    final_lr: float = 0.0

    def __post_init__(self):
        if not 0 <= self.warmup_steps < self.total_steps:
            raise ValueError(
                f"need 0 <= warmup_steps < total_steps, got "
                f"{self.warmup_steps}/{self.total_steps}"
            )
        if min(self.warmup_lr, self.base_lr, self.final_lr) < 0:
            raise ValueError("rates must be non-negative")


def lr_at(schedule: CosineSchedule, step: int) -> float:
    if not 0 <= step < schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps})")
    if step < schedule.warmup_steps:
        frac = step / schedule.warmup_steps
        return schedule.warmup_lr + (schedule.base_lr - schedule.warmup_lr) * frac
    span = schedule.total_steps - schedule.warmup_steps - 1
    # A single post-warmup step is both start and end of the cosine; the
    # endpoint contract (last step == final_lr) wins.
    progress = 1.0 if span == 0 else (step - schedule.warmup_steps) / span
    return schedule.final_lr + 0.5 * (schedule.base_lr - schedule.final_lr) * (
        1.0 + math.cos(math.pi * progress)
    )
