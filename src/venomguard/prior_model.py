"""Geographic prior: a 3-layer MLP mapping metadata features to class affinities.

The network is trained so that sigmoid(g(x) . prototype_c) approaches 1 when
class c was observed at a location with features x, and 0 both for other
classes and for uniformly random locations. Backpropagation is written out
by hand and checked against finite differences.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import DatasetBundle, FeatureMatrix, read_records, write_records
from .errors import BundleValidationError
from .linalg_pca import PcaModel, check_record_shapes, pca_from_records, pca_records
from .optim import AdamWState, CosineSchedule, adamw_step, lr_at

PROB_CLAMP = 1e-12


@dataclass
class PriorMlp:
    """Weights for d_in -> hidden -> hidden -> d_out with ReLU and dropout."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    dropout_rate: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")
        self._mask_rng = np.random.default_rng(
            np.random.SeedSequence(self.rng_seed).spawn(2)[1]
        )

    @classmethod
    def create(
        cls, d_in: int, hidden: int, d_out: int, dropout_rate: float = 0.3, seed: int = 0
    ) -> "PriorMlp":
        init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])

        def layer(n_out, n_in):
            scale = math.sqrt(2.0 / n_in)
            return init_rng.standard_normal((n_out, n_in)) * scale, np.zeros(n_out)

        w1, b1 = layer(hidden, d_in)
        w2, b2 = layer(hidden, hidden)
        w3, b3 = layer(d_out, hidden)
        return cls(w1, b1, w2, b2, w3, b3, dropout_rate=dropout_rate, rng_seed=seed)

    @property
    def d_in(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w3.shape[0]

    def draw_masks(self, batch: int) -> np.ndarray:
        """Inverted-dropout masks for one location-loss evaluation, (4, batch, hidden).

        In order: both hidden layers of the observed-location pass, then both
        of the random-location pass, drawn in one call.
        """
        keep = 1.0 - self.dropout_rate
        if self.dropout_rate == 0.0:
            return np.ones((4, batch, self.hidden))
        return (self._mask_rng.random((4, batch, self.hidden)) < keep) / keep


@dataclass
class MlpGrads:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray


@dataclass
class PriorLossResult:
    value: float
    grads: MlpGrads


@dataclass
class PrototypeMatrix:
    """Columns are per-class target embeddings for the prior's dot products."""

    matrix: np.ndarray  # (d_out, C)

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[1]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[0]


@dataclass
class PriorTrainConfig:
    lam: float = 10.0
    epochs: int = 30
    batch_size: int = 256
    seed: int = 0
    feature_bounds: tuple[np.ndarray, np.ndarray] | None = None
    hidden: int = 256
    dropout_rate: float = 0.3
    base_lr: float = 2e-5
    warmup_lr: float = 2e-7
    final_lr: float = 0.0
    weight_decay: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.feature_bounds is not None:
            lo, hi = self.feature_bounds
            lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("feature bounds must be finite")
            if np.any(lo > hi):
                raise ValueError("feature bounds need min <= max per dimension")
            self.feature_bounds = (lo, hi)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _forward(model: PriorMlp, x_rows: np.ndarray, masks=None):
    """Batched forward pass; returns output and the cache backprop needs."""
    z1 = x_rows @ model.w1.T + model.b1
    a1 = np.maximum(z1, 0.0)
    h1 = a1 if masks is None else a1 * masks[0]
    z2 = h1 @ model.w2.T + model.b2
    a2 = np.maximum(z2, 0.0)
    h2 = a2 if masks is None else a2 * masks[1]
    out = h2 @ model.w3.T + model.b3
    return out, (x_rows, z1, h1, z2, h2, masks)


def _backward(model: PriorMlp, cache, d_out: np.ndarray) -> MlpGrads:
    x_rows, z1, h1, z2, h2, masks = cache
    gw3 = d_out.T @ h2
    gb3 = d_out.sum(axis=0)
    dh2 = d_out @ model.w3
    da2 = dh2 if masks is None else dh2 * masks[1]
    dz2 = da2 * (z2 > 0)
    gw2 = dz2.T @ h1
    gb2 = dz2.sum(axis=0)
    dh1 = dz2 @ model.w2
    da1 = dh1 if masks is None else dh1 * masks[0]
    dz1 = da1 * (z1 > 0)
    gw1 = dz1.T @ x_rows
    gb1 = dz1.sum(axis=0)
    return MlpGrads(gw1, gb1, gw2, gb2, gw3, gb3)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """Stable logistic: 1 / (1 + e^-u) for u >= 0, e^u / (1 + e^u) below."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def loc_loss_batch(
    model: PriorMlp,
    x_rows: np.ndarray,
    r_rows: np.ndarray,
    ys: np.ndarray,
    prototypes: PrototypeMatrix,
    lam: float,
    masks=None,
) -> PriorLossResult:
    """Mean location loss over a batch, with mean parameter gradients.

    Per example: -lam log s(g(x).o_y) - sum_{i!=y} log(1 - s(g(x).o_i))
    - sum_i log(1 - s(g(r).o_i)), s the logistic sigmoid, probabilities
    clamped to [1e-12, 1 - 1e-12] before the log.
    """
    proto = prototypes.matrix
    batch = x_rows.shape[0]
    # one pass over the observed rows stacked on the random rows; the
    # backward pass then sums both halves' parameter gradients
    stacked_masks = None
    if masks is not None:
        stacked_masks = (
            np.concatenate((masks[0], masks[2])), np.concatenate((masks[1], masks[3]))
        )
    emb, cache = _forward(model, np.concatenate((x_rows, r_rows)), stacked_masks)
    s = _sigmoid(emb @ proto)  # (2 * batch, C): observed rows, then random rows
    rows = np.arange(batch)

    s_pos = np.clip(s[rows, ys], PROB_CLAMP, 1.0 - PROB_CLAMP)
    neg_logs = np.log(np.clip(1.0 - s, PROB_CLAMP, 1.0 - PROB_CLAMP))
    neg_logs[rows, ys] = 0.0
    total = -lam * np.log(s_pos).sum() - neg_logs.sum()
    if not np.isfinite(total):
        raise ValueError("non-finite location loss")

    ds = s.copy()
    ds[rows, ys] = -lam * (1.0 - s[rows, ys])
    grads = _backward(model, cache, (ds @ proto.T) / batch)
    return PriorLossResult(value=float(total / batch), grads=grads)


def loc_loss(
    model: PriorMlp,
    x: np.ndarray,
    r: np.ndarray,
    prototypes: PrototypeMatrix,
    y: int,
    lam: float,
    masks=None,
) -> PriorLossResult:
    """Location loss for a single (observed, random) location pair."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    r = np.asarray(r, dtype=np.float64).reshape(1, -1)
    if not 0 <= y < prototypes.n_classes:
        raise ValueError(f"class {y} out of range")
    return loc_loss_batch(model, x, r, np.array([y]), prototypes, lam, masks)


# ---------------------------------------------------------------------------
# Prototypes, sampling, training
# ---------------------------------------------------------------------------

def compute_prototypes(
    features: FeatureMatrix, labels: np.ndarray, n_classes: int, normalize: bool = True
) -> PrototypeMatrix:
    """Per-class mean of feature rows, L2-normalized columns by default."""
    labels = np.asarray(labels)
    if labels.shape != (features.rows,):
        raise ValueError("need one label per feature row")
    if labels.size and not (0 <= labels.min() and labels.max() < n_classes):
        raise ValueError("labels outside class range")
    out = np.zeros((features.dims, n_classes))
    empty: list[int] = []
    for c in range(n_classes):
        members = features.values[labels == c]
        if members.shape[0] == 0:
            empty.append(c)
            continue
        mean = members.mean(axis=0)
        norm = np.linalg.norm(mean)
        if normalize:
            if norm == 0.0:
                empty.append(c)
                continue
            mean = mean / norm
        out[:, c] = mean
    if empty:
        warnings.warn(f"zero prototype columns for classes {empty[:10]}")
    return PrototypeMatrix(out)


def prototype_inputs(bundle: DatasetBundle) -> tuple[FeatureMatrix, np.ndarray]:
    """Feature rows and labels of the labeled images, for `compute_prototypes`.

    Prefers stored image embeddings; falls back to the score matrix when a
    bundle ships without them.
    """
    source = bundle.embeddings if bundle.embeddings is not None else bundle.image_scores
    obs = bundle.observations
    labeled = obs.class_id >= 0
    if not labeled.any():
        raise BundleValidationError("no labeled observation rows for prototypes")
    return FeatureMatrix(source.values[obs.image_index[labeled]]), obs.class_id[labeled]


def feature_bounds(x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return x_rows.min(axis=0), x_rows.max(axis=0)


class BalancedSampler:
    """Batches of row indices: class uniform over C, then a row uniform within it.

    Rows are reached through a CSR-style member index: the stable argsort of
    the labels plus each class's start offset into it.
    """

    def __init__(
        self, labels: np.ndarray, rng: np.random.Generator, n_classes: int | None = None
    ):
        labels = np.asarray(labels)
        c = int(labels.max()) + 1 if n_classes is None else n_classes
        counts = np.bincount(labels, minlength=c)
        empty = np.flatnonzero(counts[:c] == 0)
        if empty.size:
            raise ValueError(f"classes with no examples: {empty[:10].tolist()}")
        self.n_classes = c
        self.counts = counts
        self.starts = np.cumsum(counts) - counts
        self.members = np.argsort(labels, kind="stable")
        self.rng = rng

    def draw(self, size: int) -> np.ndarray:
        k = self.rng.integers(self.n_classes, size=size)
        return self.members[self.starts[k] + self.rng.integers(self.counts[k])]


def training_pairs(bundle: DatasetBundle) -> tuple[np.ndarray, np.ndarray]:
    """One (location feature, label) pair per labeled observation group.

    Each observation is represented by its first row; pairs are in the file
    order of those rows.
    """
    obs = bundle.observations
    _, first = np.unique(obs.group, return_index=True)
    heads = np.sort(first)
    heads = heads[obs.class_id[heads] >= 0]
    if not heads.size:
        raise ValueError("no labeled observations to train on")
    meta_rows = bundle.resolved_metadata_rows()[heads]
    return bundle.metadata_features.values[meta_rows], obs.class_id[heads]


def train_prior(
    bundle: DatasetBundle, prototypes: PrototypeMatrix, cfg: PriorTrainConfig
) -> tuple[PriorMlp, list[float]]:
    """AdamW + warmup/cosine training of the prior under balanced sampling.

    The bundle's metadata features are assumed already reduced to the
    prior's input space. Returns the model and per-epoch mean losses;
    fully deterministic for a fixed cfg.seed.
    """
    x_all, y_all = training_pairs(bundle)
    n, d_in = x_all.shape
    n_classes = prototypes.n_classes
    if y_all.max() >= n_classes:
        raise ValueError("labels exceed prototype class count")

    model_seed, sampler_seed, loc_seed = (
        int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(3)
    )
    model = PriorMlp.create(
        d_in, cfg.hidden, prototypes.d_out, cfg.dropout_rate, seed=model_seed
    )
    if cfg.epochs == 0:
        return model, []

    sampler = BalancedSampler(y_all, np.random.default_rng(sampler_seed), n_classes)
    loc_rng = np.random.default_rng(loc_seed)
    lo, hi = cfg.feature_bounds if cfg.feature_bounds else feature_bounds(x_all)

    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    total_steps = cfg.epochs * steps_per_epoch
    warmup = steps_per_epoch if cfg.epochs > 1 else 0
    schedule = CosineSchedule(
        warmup, total_steps, cfg.warmup_lr, cfg.base_lr, cfg.final_lr
    )
    params = pack_params(model)
    opt = AdamWState.zeros(
        params.size,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.eps,
        weight_decay=cfg.weight_decay,
    )

    trace: list[float] = []
    step = 0
    for _ in range(cfg.epochs):
        epoch_losses = []
        for _ in range(steps_per_epoch):
            idx = sampler.draw(cfg.batch_size)
            xb, yb = x_all[idx], y_all[idx]
            rb = loc_rng.uniform(lo, hi, size=(cfg.batch_size, d_in))
            masks = None
            if cfg.dropout_rate > 0.0:
                masks = model.draw_masks(cfg.batch_size)
            result = loc_loss_batch(model, xb, rb, yb, prototypes, cfg.lam, masks)
            params = adamw_step(
                params, pack_grads(result.grads), opt, lr_at(schedule, step)
            )
            unpack_params(model, params)
            epoch_losses.append(result.value)
            step += 1
        trace.append(float(np.mean(epoch_losses)))
    return model, trace


def prior_scores(
    model: PriorMlp, x_rows: np.ndarray, prototypes: PrototypeMatrix
) -> np.ndarray:
    """Raw class affinities g(x) . prototype_c, (rows, d_in) -> (rows, C), in
    eval mode (no dropout); softmax happens downstream."""
    emb, _ = _forward(model, x_rows)
    return emb @ prototypes.matrix


# ---------------------------------------------------------------------------
# Parameter packing (for the flat-vector optimizer)
# ---------------------------------------------------------------------------

_PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")


def pack_params(model: PriorMlp) -> np.ndarray:
    return np.concatenate([getattr(model, f).ravel() for f in _PARAM_FIELDS])


def pack_grads(grads: MlpGrads) -> np.ndarray:
    return np.concatenate([getattr(grads, f).ravel() for f in _PARAM_FIELDS])


def unpack_params(model: PriorMlp, flat: np.ndarray) -> None:
    offset = 0
    for f in _PARAM_FIELDS:
        arr = getattr(model, f)
        setattr(model, f, flat[offset : offset + arr.size].reshape(arr.shape))
        offset += arr.size


# ---------------------------------------------------------------------------
# Serialization: the PCA reduction's three records, one augmented [W | b]
# matrix per layer and the prototypes, as seven records of one VGF1 file.
# ---------------------------------------------------------------------------

@dataclass
class PriorArtifact:
    mlp: PriorMlp
    prototypes: PrototypeMatrix
    pca: PcaModel


def save_prior(artifact: PriorArtifact, path: str | Path) -> None:
    m = artifact.mlp
    write_records(
        path,
        pca_records(artifact.pca)
        + [
            FeatureMatrix(np.hstack([m.w1, m.b1[:, None]])),
            FeatureMatrix(np.hstack([m.w2, m.b2[:, None]])),
            FeatureMatrix(np.hstack([m.w3, m.b3[:, None]])),
            FeatureMatrix(artifact.prototypes.matrix),
        ],
    )


def load_prior(path: str | Path) -> PriorArtifact:
    """Read an artifact written by ``save_prior`` for inference; any record
    whose shape breaks the chain raises FormatError.

    The network comes back without dropout: training always starts from
    ``PriorMlp.create``, never from an artifact.
    """
    records = read_records(path, 7)
    check_record_shapes(path, records)
    l1, l2, l3, proto = (r.values for r in records[3:])
    mlp = PriorMlp(
        w1=l1[:, :-1],
        b1=l1[:, -1],
        w2=l2[:, :-1],
        b2=l2[:, -1],
        w3=l3[:, :-1],
        b3=l3[:, -1],
        dropout_rate=0.0,
    )
    return PriorArtifact(
        mlp=mlp, prototypes=PrototypeMatrix(proto), pca=pca_from_records(records[:3])
    )
