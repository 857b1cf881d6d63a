"""Decision layer: fuse image scores with the geographic prior, average per
observation, then apply the venom-aware escalation rule."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import (
    ClassTable,
    DatasetBundle,
    parse_ints,
    read_manifest,
    reject_first,
    sorted_unique,
    write_manifest,
)
from .errors import BundleValidationError
from .linalg_pca import pca_transform
from .losses import softmax
from .prior_model import PriorArtifact, prior_scores


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
class PredictionOutput:
    """Final predictions plus every intermediate score stage.

    raw and combined rows align with the rows of bundle.observations;
    aggregated rows align with results (sorted by observation id).
    """

    results: list[PredictionResult]
    raw: np.ndarray
    combined: np.ndarray
    aggregated: np.ndarray


def joint_scores(image_probs: np.ndarray, prior_logits: np.ndarray) -> np.ndarray:
    """Reweight image probabilities by softmax of the prior, renormalized."""
    image_probs = np.asarray(image_probs, dtype=np.float64)
    prior_logits = np.asarray(prior_logits, dtype=np.float64)
    if image_probs.shape != prior_logits.shape:
        raise ValueError("image scores and prior must have matching length")
    if np.any(image_probs < 0.0):
        raise ValueError("image scores must be non-negative")
    return _joint_rows(image_probs[None, :], softmax(prior_logits)[None, :])[0]


def _joint_rows(probs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise renormalized probs * weights; consumes weights in place.

    A row whose product sums to <= 0 keeps its image probabilities.
    """
    joint = weights
    joint *= probs
    totals = joint.sum(axis=1)
    vanished = totals <= 0.0
    if vanished.any():
        warnings.warn("joint scores vanished; falling back to image scores")
        totals[vanished] = 1.0
        joint[vanished] = probs[vanished]
    joint /= totals[:, None]
    return joint


def escalate_venomous(
    row: np.ndarray, classes: ClassTable, policy: EscalationPolicy
) -> int:
    """Argmax when confident; otherwise prefer a venomous top-k candidate.

    Ties resolve to the lower class id throughout.
    """
    row = np.asarray(row, dtype=np.float64)
    flags = classes.venomous_flags
    if row.shape != flags.shape:
        raise ValueError("probability row and class table must align")
    if abs(row.sum() - 1.0) > 1e-9:
        raise ValueError("probability row must sum to 1")
    base = np.argmax(row, keepdims=True)
    return int(_escalate_rows(row[None, :], base, flags, policy)[0])


def _escalate_rows(
    agg: np.ndarray, base: np.ndarray, flags: np.ndarray, policy: EscalationPolicy
) -> np.ndarray:
    """Final class per row: base where confident, else the best venomous top-k."""
    final = base.copy()
    low = np.flatnonzero(agg[np.arange(agg.shape[0]), base] < policy.tau)
    # stable sort of the negated scores: score desc, then class id asc
    top = np.argsort(-agg[low], axis=1, kind="stable")[:, : policy.top_k]
    venomous = flags[top]
    found = venomous.any(axis=1)
    first = venomous.argmax(axis=1)
    final[low[found]] = top[found, first[found]]
    return final


def _prior_weights_by_location(
    bundle: DatasetBundle, prior: PriorArtifact
) -> np.ndarray:
    """softmax(prior) per location row, computed once and reused."""
    reduced = pca_transform(prior.pca, bundle.metadata_features)
    return softmax(prior_scores(prior.mlp, reduced.values, prior.prototypes))


def predict_dataset(
    bundle: DatasetBundle,
    prior: PriorArtifact | None = None,
    policy: EscalationPolicy | None = None,
    scores_are_logits: bool = True,
) -> PredictionOutput:
    """Predict one class per observation, sorted by observation id."""
    policy = policy or EscalationPolicy()
    n_classes = len(bundle.classes.entries)
    scores = bundle.image_scores.values
    if scores.shape[1] != n_classes:
        raise ValueError(f"score width {scores.shape[1]} != class count {n_classes}")
    if scores_are_logits:
        probs = softmax(scores)
    else:
        if np.any(scores < 0.0):
            raise ValueError("probability scores must be non-negative")
        sums = scores.sum(axis=1)
        if np.any(sums <= 0.0):
            raise ValueError("probability score rows must have positive sum")
        probs = scores / sums[:, None]

    obs = bundle.observations
    raw = probs[obs.image_index]

    if prior is not None:
        if prior.prototypes.n_classes != n_classes:
            raise BundleValidationError(
                f"prior scores {prior.prototypes.n_classes} classes, "
                f"the dataset has {n_classes}"
            )
        loc_weights = _prior_weights_by_location(bundle, prior)
        combined = _joint_rows(raw, loc_weights[bundle.resolved_metadata_rows()])
    else:
        combined = raw.copy()

    # ids are in Python str order; np.add.at sums each group's rows in file
    # order, as a per-group mean would
    ids, group = obs.ids, obs.group
    aggregated = np.zeros((ids.size, n_classes))
    np.add.at(aggregated, group, combined)
    aggregated /= np.bincount(group, minlength=ids.size)[:, None]

    base = aggregated.argmax(axis=1)
    final = _escalate_rows(aggregated, base, bundle.classes.venomous_flags, policy)
    confidence = aggregated[np.arange(ids.size), base]
    results = [
        PredictionResult(obs_id, cls, pre, conf)
        for obs_id, cls, pre, conf in zip(
            ids.tolist(), final.tolist(), base.tolist(), confidence.tolist()
        )
    ]
    return PredictionOutput(
        results=results, raw=raw, combined=combined, aggregated=aggregated
    )


def write_predictions_csv(
    path: str | Path, results: list[PredictionResult], explain: bool = False
) -> None:
    header = ["observation_id", "class_id"]
    if explain:
        header += ["pre_escalation_class_id", "confidence"]
    write_manifest(
        path,
        header,
        (
            [r.observation_id, r.class_id, r.pre_escalation_class_id, repr(r.confidence)]
            if explain
            else [r.observation_id, r.class_id]
            for r in results
        ),
    )


def read_predictions_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Observation ids in Python str order, and the class id of each."""
    cells, short = read_manifest(path, ["observation_id", "class_id"])
    ids, place, repeat = sorted_unique(cells[:, 0])
    class_id, bad_class = parse_ints(cells[:, 1])
    reject_first(
        path,
        [
            (repeat, lambda k: f"duplicate observation {cells[k, 0]}"),
            (bad_class, lambda k: f"bad class_id {cells[k, 1]!r}"),
        ],
        short,
        "expected observation_id,class_id",
    )
    # the ids are distinct, so each row has its own place in ``ids``
    by_id = np.empty_like(class_id)
    by_id[place] = class_id
    return ids, by_id
