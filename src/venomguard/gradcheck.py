"""Finite-difference verification of the location loss's analytic gradient."""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .prior_model import (
    PriorMlp,
    PrototypeMatrix,
    _forward,
    draw_masks,
    loc_loss_batch,
    pack_params,
    unpack_params,
)

DEFAULT_STEP = 1e-6
DEFAULT_TOL = 1e-4


def central_difference(fn: Callable[[np.ndarray], float], x0: np.ndarray) -> np.ndarray:
    """Two-sided numerical gradient of a scalar function, step DEFAULT_STEP."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.empty_like(x0)
    for i in range(x0.size):
        bumped = x0.copy()
        bumped[i] = x0[i] + DEFAULT_STEP
        hi = fn(bumped)
        bumped[i] = x0[i] - DEFAULT_STEP
        lo = fn(bumped)
        grad[i] = (hi - lo) / (2.0 * DEFAULT_STEP)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(1.0, float(np.abs(analytic).max()), float(np.abs(numeric).max()))
    return float(np.abs(analytic - numeric).max()) / scale


@dataclass
class GradCheckResult:
    trials: int
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < DEFAULT_TOL


def _loc_instance(rng: np.random.Generator):
    """Random small prior-loss instance, one (observed, random) location
    pair, where finite differences are valid.

    Resamples away from ReLU kinks and from affinities saturated enough to
    hit the probability clamp, where the loss goes flat but the exact
    gradient does not.
    """
    for _ in range(50):
        d_in = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 7))
        d_out = int(rng.integers(2, 7))
        c = int(rng.integers(1, 8))
        rate = 0.3 if rng.random() < 0.5 else 0.0
        seed = int(rng.integers(2**31))
        model = PriorMlp.create(d_in, hidden, d_out, seed=seed)
        # He init on tiny nets is too small to stay clear of kinks; rescale
        for name in ("w1", "w2", "w3"):
            setattr(model, name, getattr(model, name) * 2.0)
        model.b1 = rng.normal(0.0, 0.5, hidden)
        model.b2 = rng.normal(0.0, 0.5, hidden)
        proto = rng.standard_normal((d_out, c))
        proto /= np.linalg.norm(proto, axis=0, keepdims=True)
        prototypes = PrototypeMatrix(proto)
        x = rng.normal(0.0, 1.0, (1, d_in))
        r = rng.normal(0.0, 1.0, (1, d_in))
        y = rng.integers(c, size=1)
        lam = float(rng.uniform(0.5, 5.0))
        masks = None
        if rate > 0.0:
            # the stream train_prior would draw this model's masks from
            mask_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
            masks = draw_masks(mask_rng, rate, 1, hidden)
        margin, peak = _fd_margins(model, x, r, masks, proto)
        # peak < 10 keeps 1 - sigmoid(u) well away from cancellation, which
        # would otherwise swamp the finite-difference quotient
        if margin > 1e-4 and peak < 10.0:
            return model, x, r, y, prototypes, lam, masks
    raise RuntimeError("could not sample a finite-difference-safe instance")


def _fd_margins(model: PriorMlp, x, r, masks, proto) -> tuple[float, float]:
    """(distance to the nearest ReLU kink, largest |affinity|) at the center."""
    margin = np.inf
    peak = 0.0
    for vec, m in ((x, None if masks is None else masks[:2]),
                   (r, None if masks is None else masks[2:])):
        out, (_, h1, _, _) = _forward(model, vec, m)
        z1 = vec @ model.w1.T + model.b1
        z2 = h1 @ model.w2.T + model.b2
        margin = min(margin, float(np.abs(z1).min()), float(np.abs(z2).min()))
        peak = max(peak, float(np.abs(out @ proto).max()))
    return margin, peak


def _check_loc(rng: np.random.Generator) -> float:
    model, x, r, y, prototypes, lam, masks = _loc_instance(rng)
    _, analytic = loc_loss_batch(model, x, r, y, prototypes, lam, masks)
    probe = copy.deepcopy(model)

    def fn(flat: np.ndarray) -> float:
        unpack_params(probe, flat)
        return loc_loss_batch(probe, x, r, y, prototypes, lam, masks)[0]

    numeric = central_difference(fn, pack_params(model))
    return relative_error(analytic, numeric)


def check_loc_loss(trials: int = 20, seed: int = 0) -> GradCheckResult:
    """Worst relative error of the location loss's gradient over random
    instances drawn from ``seed``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst = max(_check_loc(rng) for _ in range(trials))
    return GradCheckResult(trials=trials, max_rel_err=worst)
