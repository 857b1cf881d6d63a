"""Evaluation: macro F1, the four venom-confusion percentages, and the
weighted composite score used to rank predictions."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import ClassTable
from .errors import BundleValidationError
from .inference import read_predictions_csv

# term weights: F1, then the complements of p1..p4; the heaviest (5) sits on
# p3, venomous predicted harmless, the medically dangerous direction
WEIGHTS = (1.0, 1.0, 2.0, 5.0, 2.0)


@dataclass
class MetricReport:
    macro_f1: float
    p1: float
    p2: float
    p3: float
    p4: float
    accuracy: float
    composite: float
    confusion: np.ndarray

    @property
    def n_observations(self) -> int:
        return int(self.confusion.sum())


def confusion_matrix(truth: np.ndarray, pred: np.ndarray, n_classes: int) -> np.ndarray:
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape or truth.ndim != 1 or truth.size < 1:
        raise ValueError("truth and predictions must be equal-length, non-empty")
    for name, ids in (("truth", truth), ("pred", pred)):
        if ids.min() < 0 or ids.max() >= n_classes:
            raise ValueError(f"{name} contains ids outside [0, {n_classes})")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (truth, pred), 1)
    return out


def macro_f1(confusion: np.ndarray) -> float:
    """Mean per-class F1 as a percentage, skipping zero-support classes."""
    confusion = np.asarray(confusion)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    tp = np.diagonal(confusion).astype(np.float64)
    prec = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    rec = np.divide(tp, support, out=np.zeros_like(tp), where=support > 0)
    both = prec + rec
    f1 = np.divide(2 * prec * rec, both, out=np.zeros_like(tp), where=both > 0)
    f1 = f1[support > 0]
    if not f1.size:
        raise ValueError("no classes with ground-truth support")
    return 100.0 * float(np.mean(f1))


def venom_confusions(
    confusion: np.ndarray, classes: ClassTable
) -> tuple[float, float, float, float]:
    """Percentages of the four cross/within-status error categories, each
    over the observations of its true venom status: p1 harmless->harmless
    and p2 harmless->venomous over the harmless, p3 venomous->harmless and
    p4 venomous->venomous over the venomous."""
    confusion = np.asarray(confusion)
    flags = classes.venomous_flags
    if confusion.shape[0] != flags.size:
        raise ValueError("confusion size does not match class table")
    venom = np.flatnonzero(flags)
    harmless = np.flatnonzero(~flags)
    off = confusion.copy()
    np.fill_diagonal(off, 0)
    hh = off[np.ix_(harmless, harmless)].sum()
    hv = off[np.ix_(harmless, venom)].sum()
    vh = off[np.ix_(venom, harmless)].sum()
    vv = off[np.ix_(venom, venom)].sum()

    n_h = confusion[harmless].sum()
    n_v = confusion[venom].sum()
    denoms = (n_h, n_h, n_v, n_v)

    out = []
    for count, denom in zip((hh, hv, vh, vv), denoms):
        if denom == 0:
            warnings.warn("zero denominator for a venom-confusion percentage")
            out.append(0.0)
        else:
            out.append(100.0 * count / denom)
    return tuple(out)


def track1_metric(f1: float, p: tuple[float, float, float, float]) -> float:
    """WEIGHTS-weighted mean of F1 and the four error-percentage complements."""
    for v in (f1, *p):
        if not 0.0 <= v <= 100.0:
            raise ValueError("metric inputs must be percentages in [0, 100]")
    numer = WEIGHTS[0] * f1 + sum(w * (100.0 - pi) for w, pi in zip(WEIGHTS[1:], p))
    return numer / sum(WEIGHTS)


def build_report(truth: np.ndarray, pred: np.ndarray, classes: ClassTable) -> MetricReport:
    confusion = confusion_matrix(truth, pred, classes.n_classes)
    f1 = macro_f1(confusion)
    p = venom_confusions(confusion, classes)
    accuracy = 100.0 * np.diagonal(confusion).sum() / confusion.sum()
    composite = track1_metric(f1, p)
    return MetricReport(
        macro_f1=f1,
        p1=p[0],
        p2=p[1],
        p3=p[2],
        p4=p[3],
        accuracy=float(accuracy),
        composite=composite,
        confusion=confusion,
    )


def score_predictions(
    truth_path: str | Path, pred_path: str | Path, classes: ClassTable
) -> MetricReport:
    """Join truth and prediction CSVs on observation id and score them."""
    truth_ids, truth = read_predictions_csv(truth_path)
    if not truth_ids.size:
        raise BundleValidationError(f"{truth_path}: no observations to score")
    pred_ids, pred = read_predictions_csv(pred_path)
    if not np.array_equal(truth_ids, pred_ids):
        missing = np.setdiff1d(truth_ids, pred_ids).tolist()
        extra = np.setdiff1d(pred_ids, truth_ids).tolist()
        parts = []
        if missing:
            parts.append(f"missing predictions for {missing[:10]}")
        if extra:
            parts.append(f"predictions for unknown observations {extra[:10]}")
        raise BundleValidationError("; ".join(parts))
    n = classes.n_classes
    for path, labels in ((truth_path, truth), (pred_path, pred)):
        bad = np.flatnonzero((labels < 0) | (labels >= n))
        if bad.size:
            k = bad[0]
            raise BundleValidationError(
                f"{path}: observation {truth_ids[k]} has class id {labels[k]}, "
                f"outside [0, {n})"
            )
    return build_report(truth, pred, classes)


def report_text(report: MetricReport) -> str:
    lines = [
        f"observations     {report.n_observations}",
        f"macro_f1         {report.macro_f1:.4f}",
        f"p1 (h->h errors) {report.p1:.4f}",
        f"p2 (h->v)        {report.p2:.4f}",
        f"p3 (v->h)        {report.p3:.4f}",
        f"p4 (v->v errors) {report.p4:.4f}",
        f"accuracy         {report.accuracy:.4f}",
        f"composite        {report.composite:.4f}",
    ]
    return "\n".join(lines) + "\n"


def report_json(report: MetricReport) -> str:
    payload = {
        "macro_f1": report.macro_f1,
        "p1": report.p1,
        "p2": report.p2,
        "p3": report.p3,
        "p4": report.p4,
        "accuracy": report.accuracy,
        "composite": report.composite,
        "n_observations": report.n_observations,
    }
    return json.dumps(payload, indent=2) + "\n"
