"""Decision layer: fuse image scores with the geographic prior, average per
observation, then apply the venom-aware escalation rule."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .data_model import DatasetBundle, read_keyed_ints, write_manifest
from .errors import BundleValidationError
from .linalg_pca import pca_transform
from .prior_model import PriorArtifact, prior_scores

# image rows per step of predict_dataset's pass over the image rows
_BLOCK_ROWS = 4096
# locations per step of the prior pass; the last step takes the remainder, so
# none is shorter (see _prior_weights_by_location)
_PRIOR_BLOCK_ROWS = 4096


@dataclass
class EscalationPolicy:
    """Escalate to a venomous candidate only when confidence is below tau."""

    tau: float = 0.5
    top_k: int = 5

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass
class PredictionResult:
    observation_id: str
    class_id: int
    pre_escalation_class_id: int
    confidence: float


@dataclass
class Predictions:
    """One prediction per observation, sorted by observation id, as columns.

    Iterating yields a PredictionResult per observation.
    """

    ids: np.ndarray
    class_id: np.ndarray
    pre_escalation_class_id: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self) -> Iterator[PredictionResult]:
        return map(
            PredictionResult,
            self.ids.tolist(),
            self.class_id.tolist(),
            self.pre_escalation_class_id.tolist(),
            self.confidence.tolist(),
        )


@dataclass
class PredictionOutput:
    """Final predictions, and the per-observation scores they were made from.

    aggregated rows align with results (sorted by observation id).
    """

    results: Predictions
    aggregated: np.ndarray


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, so a matrix is normalized row by row.

    The result is written to ``out`` when given, which may be ``z`` itself.
    A NaN or +inf logit, or a row of only -inf, raises ValueError: each
    reaches its row's maximum, which is checked in place of every logit. A
    -inf logit in a row with a finite maximum gets probability 0.
    """
    z = np.asarray(z, dtype=np.float64)
    top = z.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise ValueError("logits must be finite")
    # one result array: shifted, exponentiated and normalized in place
    e = np.subtract(z, top, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _joint_rows(probs: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise renormalized probs * weights, and how many rows fell back;
    consumes weights in place.

    A row whose product sums to <= 0 keeps its image probabilities.
    """
    joint = weights
    joint *= probs
    totals = joint.sum(axis=1)
    vanished = totals <= 0.0
    fallbacks = int(np.count_nonzero(vanished))
    if fallbacks:
        totals[vanished] = 1.0
        joint[vanished] = probs[vanished]
    joint /= totals[:, None]
    return joint, fallbacks


def _warn_fallbacks(fallbacks: int, rows: int) -> None:
    if fallbacks:
        warnings.warn(
            f"joint scores vanished on {fallbacks} of {rows} rows; "
            "falling back to image scores"
        )


def _escalate_rows(
    agg: np.ndarray, base: np.ndarray, flags: np.ndarray, policy: EscalationPolicy
) -> np.ndarray:
    """Final class per row: base where confident, else the best venomous top-k.

    The top-k of a row is its k best scores, lower class ids first among
    equal scores; the venomous member with the highest score, then the
    lowest id, replaces the base class. That member can only be the row's
    best venomous class v: it is in the top-k when fewer than k classes
    rank above it, those scoring more and those scoring the same with a
    lower id, and if it is not, no venomous class is.
    """
    final = base.copy()
    venomous = np.flatnonzero(flags)
    if not venomous.size:
        return final
    columns = np.arange(agg.shape[1])
    low = np.flatnonzero(agg[np.arange(agg.shape[0]), base] < policy.tau)
    # uncertain rows a block at a time, so their copies stay small
    for start in range(0, low.size, _BLOCK_ROWS):
        rows = low[start : start + _BLOCK_ROWS]
        scores = agg[rows]
        v = venomous[scores[:, venomous].argmax(axis=1)]
        s_v = scores[np.arange(rows.size), v, None]
        ahead = np.count_nonzero(scores > s_v, axis=1)
        ahead += np.count_nonzero((scores == s_v) & (columns < v[:, None]), axis=1)
        escalate = ahead < policy.top_k
        final[rows[escalate]] = v[escalate]
    return final


def _prior_weights_by_location(
    bundle: DatasetBundle, prior: PriorArtifact
) -> np.ndarray:
    """softmax(prior) per location row, computed once and reused.

    The locations are reduced in one call. The MLP, the prototype product
    and the softmax then run over blocks of _PRIOR_BLOCK_ROWS locations, the
    last block taking the remainder, so every block has from one to two
    times the constant (less one) rows; fewer locations make one block,
    whose array is returned as it is. No block may be smaller: OpenBLAS
    sends small products to a kernel that rounds differently. Measured with
    numpy 2.4.6's OpenBLAS 0.3.31 on an AVX-512 Xeon, a short last block of
    its own changed the weights of hundreds of rows at 50k locations, while
    blocks of 2048 rows or more gave the bits of one call over all
    locations; another BLAS build or CPU may choose its kernels by another
    rule. The (locations, C) result is allocated after the first block's
    activations are freed, and holds each block's softmax.
    """
    reduced = pca_transform(prior.pca, bundle.metadata_features).values
    n = reduced.shape[0]
    blocks = max(n // _PRIOR_BLOCK_ROWS, 1)
    edges = [*range(0, blocks * _PRIOR_BLOCK_ROWS, _PRIOR_BLOCK_ROWS), n]
    weights = None
    for start, stop in zip(edges, edges[1:]):
        scores = prior_scores(prior.mlp, reduced[start:stop], prior.prototypes)
        if blocks == 1:
            return softmax(scores, out=scores)
        if weights is None:
            weights = np.empty((n, scores.shape[1]))
        softmax(scores, out=weights[start:stop])
    return weights


def predict_dataset(
    bundle: DatasetBundle,
    prior: PriorArtifact | None = None,
    policy: EscalationPolicy | None = None,
) -> PredictionOutput:
    """Predict one class per observation, sorted by observation id.

    The prior's (locations, C) weights come first, from blocks of at least
    _PRIOR_BLOCK_ROWS locations, none smaller, so that on the BLAS measured
    they have the bits of one pass over all locations (see
    _prior_weights_by_location). The image rows, which are logits, then
    stream in file order, _BLOCK_ROWS at a time, through softmax into
    ``aggregated``; each block is widened to float64 as it is gathered,
    so float32 scores give the same results as their float64 values.
    After the prior pass, memory holds the weights, ``aggregated`` and one
    block, however many images there are.
    At most one warning names the rows whose joint scores fell back.
    """
    policy = policy or EscalationPolicy()
    n_classes = bundle.classes.n_classes
    scores = bundle.image_scores.values
    if scores.shape[1] != n_classes:
        raise ValueError(f"score width {scores.shape[1]} != class count {n_classes}")
    obs = bundle.observations
    loc_weights = None
    if prior is not None:
        if prior.prototypes.n_classes != n_classes:
            raise BundleValidationError(
                f"prior scores {prior.prototypes.n_classes} classes, "
                f"the dataset has {n_classes}"
            )
        loc_weights = _prior_weights_by_location(bundle, prior)
        meta_rows = bundle.resolved_metadata_rows()

    ids, group, image_index = obs.ids, obs.group, obs.image_index
    aggregated = np.zeros((ids.size, n_classes))
    cells = aggregated.reshape(-1)
    columns = np.arange(n_classes)
    fallbacks = 0
    for start in range(0, len(obs), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        # each row is normalized on its own, so blocks give the same values;
        # the gathered rows are widened before softmax, which would round
        # its float64 results into a float32 array
        joint = scores[image_index[block]].astype(np.float64, copy=False)
        softmax(joint, out=joint)
        if loc_weights is not None:
            joint, vanished = _joint_rows(joint, loc_weights[meta_rows[block]])
            fallbacks += vanished
        # ids are in Python str order; add.at adds each cell's rows in file
        # order, as a per-group mean would, and only 1-D indices and values
        # take numpy's fast path
        np.add.at(cells, (group[block, None] * n_classes + columns).ravel(), joint.ravel())
    _warn_fallbacks(fallbacks, len(obs))
    # freed before escalation, whose blocks of uncertain rows need room too
    del loc_weights
    aggregated /= np.bincount(group, minlength=ids.size)[:, None]

    base = aggregated.argmax(axis=1)
    final = _escalate_rows(aggregated, base, bundle.classes.venomous_flags, policy)
    confidence = aggregated[np.arange(ids.size), base]
    return PredictionOutput(
        results=Predictions(ids, final, base, confidence), aggregated=aggregated
    )


def write_predictions_csv(
    path: str | Path, predictions: Predictions, explain: bool = False
) -> None:
    header = ["observation_id", "class_id"]
    columns = [predictions.ids, predictions.class_id]
    if explain:
        header += ["pre_escalation_class_id", "confidence"]
        columns += [predictions.pre_escalation_class_id, predictions.confidence]
    write_manifest(path, header, columns)


def read_predictions_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Observation ids in Python str order, and the class id of each."""
    return read_keyed_ints(
        path, ["observation_id", "class_id"], "observation", "expected observation_id,class_id"
    )
