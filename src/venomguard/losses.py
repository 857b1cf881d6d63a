"""Classification losses with analytic gradients: cross-entropy, seesaw, RWWCE.

All losses take a logit vector ``z`` and a target class index and return the
scalar value together with d(value)/dz. Gradients are validated against
central finite differences by the test suite and the ``gradcheck`` CLI.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import ClassTable

# Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before any log,
# so extreme logits cannot produce -log(0).
PROB_CLAMP = 1e-12


@dataclass
class LossResult:
    value: float
    grad: np.ndarray


@dataclass
class SeesawState:
    """Per-class cumulative positive-label counts plus rebalance exponents.

    ``p`` scales mitigation (count-ratio discount of tail-class penalties),
    ``q`` scales compensation (probability-ratio boost of hard negatives).
    Static mode freezes the counts; online mode increments the target class
    count after each loss evaluation (single writer).
    """

    class_counts: np.ndarray
    p: float = 0.8
    q: float = 2.0
    count_mode: str = "static"

    def __post_init__(self):
        counts = np.asarray(self.class_counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("class_counts must be a vector")
        if np.any(counts < 0):
            raise ValueError("class_counts must be non-negative")
        if self.p < 0 or self.q < 0:
            raise ValueError("exponents p and q must be non-negative")
        if self.count_mode not in ("static", "online"):
            raise ValueError(f"unknown count_mode {self.count_mode!r}")
        if self.count_mode == "static":
            counts.setflags(write=False)
        self.class_counts = counts


@dataclass
class CostMatrix:
    """C x C non-negative misclassification costs with a zero diagonal."""

    cost: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=np.float64)
        if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
            raise ValueError("cost must be square")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            raise ValueError("costs must be finite and non-negative")
        if np.any(np.diagonal(cost) != 0):
            raise ValueError("cost diagonal must be zero")
        self.cost = cost


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, so a matrix is normalized row by row."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    # one result array: shifted, exponentiated and normalized in place
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _check_target(z: np.ndarray, y: int) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    if not 0 <= y < z.shape[0]:
        raise ValueError(f"target {y} out of range for {z.shape[0]} classes")
    return z


def cross_entropy(z: np.ndarray, y: int) -> LossResult:
    z = _check_target(z, y)
    shifted = z - z.max()
    logsum = np.log(np.exp(shifted).sum()) + z.max()
    sigma = softmax(z)
    grad = sigma.copy()
    grad[y] -= 1.0
    return LossResult(value=float(logsum - z[y]), grad=grad)


def _log_seesaw_weights(z: np.ndarray, y: int, state: SeesawState) -> np.ndarray:
    """log S_yj per class j: mitigation (count ratios) + compensation (prob ratios)."""
    counts = state.class_counts.astype(np.float64)
    c = z.shape[0]
    if counts.shape[0] != c:
        raise ValueError(f"class_counts length {counts.shape[0]} != {c} classes")
    log_w = np.zeros(c)
    if state.p > 0:
        if counts.sum() == 0:
            warnings.warn("all class counts are zero: seesaw weights fall back to 1")
        elif counts[y] > 0:
            with np.errstate(divide="ignore"):
                ratio = np.log(counts) - np.log(counts[y])
            # min(1, (N_j/N_y)^p); log(0) -> -inf is a legitimate zero weight
            log_w += np.minimum(0.0, state.p * ratio)
    if state.q > 0:
        # (sigma_j / sigma_y)^q = exp(q (z_j - z_y)), floored at 1
        log_w += np.maximum(0.0, state.q * (z - z[y]))
    log_w[y] = 0.0
    return log_w


def seesaw_weights(z: np.ndarray, y: int, state: SeesawState) -> np.ndarray:
    """Linear-scale rebalance weights S_yj (entry y is 1 by convention)."""
    z = _check_target(z, y)
    return np.exp(_log_seesaw_weights(z, y, state))


def seesaw_loss(
    z: np.ndarray, y: int, state: SeesawState, weights: np.ndarray | None = None
) -> LossResult:
    """Seesaw loss: softmax cross-entropy with per-class reweighted denominators.

    value = -log(e^{z_y} / (sum_{j != y} S_yj e^{z_j} + e^{z_y})). Compensation
    factors inside S are treated as constants in the gradient, matching the
    stop-gradient convention. ``weights`` pins S_yj directly when given.
    """
    z = _check_target(z, y)
    if weights is None:
        log_w = _log_seesaw_weights(z, y, state)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != z.shape:
            raise ValueError("weights must match logit shape")
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        log_w[y] = 0.0

    terms = log_w + z  # log(S_yj e^{z_j}); term y is z_y itself
    top = terms.max()
    scaled = np.exp(terms - top)
    denom = scaled.sum()
    value = -(z[y] - top - np.log(denom))

    grad = scaled / denom
    grad[y] = np.exp(z[y] - top) / denom - 1.0

    if state.count_mode == "online":
        state.class_counts[y] += 1
    return LossResult(value=float(value), grad=grad)


def build_cost_matrix(
    classes: ClassTable, weights: tuple[float, float, float, float]
) -> CostMatrix:
    """Map (harmless->harmless, harmless->venomous, venomous->harmless,
    venomous->venomous) confusion weights onto a full C x C cost matrix."""
    hh, hv, vh, vv = (float(w) for w in weights)
    if min(hh, hv, vh, vv) < 0:
        raise ValueError("confusion weights must be non-negative")
    flags = classes.venomous_flags
    if flags.all() or not flags.any():
        raise ValueError("need at least one venomous and one harmless class")
    c = classes.n_classes
    cost = np.empty((c, c))
    for truth in range(c):
        for pred in range(c):
            if truth == pred:
                cost[truth, pred] = 0.0
            elif flags[truth]:
                cost[truth, pred] = vh if not flags[pred] else vv
            else:
                cost[truth, pred] = hv if flags[pred] else hh
    return CostMatrix(cost)


def rwwce_loss(
    z: np.ndarray,
    y: int,
    cost: CostMatrix,
    fn_weight: np.ndarray,
    clamp: float = PROB_CLAMP,
) -> LossResult:
    """Real-world weighted cross-entropy.

    The miss term -fn_weight[y] log(sigma_y) prices failing to predict the
    true class; each false-positive term -cost[y][j] log(1 - sigma_j) prices
    leaking probability onto class j at the cost of that confusion type.
    """
    z = _check_target(z, y)
    c = z.shape[0]
    fn_weight = np.asarray(fn_weight, dtype=np.float64)
    if fn_weight.shape != (c,) or np.any(fn_weight < 0):
        raise ValueError("fn_weight must be a non-negative vector of length C")
    if cost.cost.shape != (c, c):
        raise ValueError(f"cost matrix shape {cost.cost.shape} != ({c}, {c})")

    sigma = softmax(z)
    p_true = np.clip(sigma, clamp, 1.0 - clamp)
    p_rest = np.clip(1.0 - sigma, clamp, 1.0 - clamp)
    row = cost.cost[y]
    value = -fn_weight[y] * np.log(p_true[y])
    mask = np.arange(c) != y
    value -= np.sum(row[mask] * np.log(p_rest[mask]))

    # dL/dsigma_j scaled by sigma_j, then pushed through the softmax Jacobian
    a = (row / p_rest) * sigma
    a[y] = -fn_weight[y] * sigma[y] / p_true[y]
    grad = a - sigma * a.sum()
    return LossResult(value=float(value), grad=grad)
