"""Venom-aware snake species classification: the decision layer.

The package covers everything downstream of an image classifier's raw
scores: a geographic prior trained on location metadata, joint inference,
venom-aware escalation, the weighted evaluation metric, and a small
self-contained optimization and serialization stack. The long-tail loss
that trains the image classifier is outside the package.
"""

from .data_model import (
    ClassTable,
    DatasetBundle,
    FeatureMatrix,
    LocationTable,
    ObservationRow,
    ObservationTable,
    load_bundle,
    validate_bundle,
)
from .inference import (
    EscalationPolicy,
    PredictionResult,
    Predictions,
    predict_dataset,
)
from .metrics import MetricReport, score_predictions, track1_metric
from .optim import AdamWState, CosineSchedule, adamw_step, lr_at
from .prior_model import (
    PriorArtifact,
    PriorMlp,
    PriorTrainConfig,
    PrototypeMatrix,
    compute_prototypes,
    fit_prior,
    train_prior,
)
from .synthetic import SynthConfig, generate, write_dataset

__version__ = "0.1.0"
