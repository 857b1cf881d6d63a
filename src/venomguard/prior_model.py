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

from .data_model import (
    DatasetBundle,
    FeatureMatrix,
    read_records,
    read_sidecar,
    write_records,
)
from .errors import BundleValidationError, FormatError
from .linalg_pca import PcaModel, transform_vector
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
    normalized: bool = True

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


def prior_forward(model: PriorMlp, x: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Single-vector forward; train mode consumes the model's dropout stream."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.d_in,):
        raise ValueError(f"expected input of length {model.d_in}, got {x.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    masks = None
    if mode == "train" and model.dropout_rate > 0.0:
        masks = model.draw_masks(1)[:2]
    out, _ = _forward(model, x.reshape(1, -1), masks)
    return out[0]


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
    return PrototypeMatrix(out, normalized=normalize)


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


def sample_random_location(
    bounds: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    lo, hi = bounds
    return rng.uniform(lo, hi)


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
    model: PriorMlp, metadata_x: np.ndarray, prototypes: PrototypeMatrix
) -> np.ndarray:
    """Raw class affinities g(x) . prototype_c; softmax happens downstream."""
    emb = prior_forward(model, metadata_x, mode="eval")
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
# Serialization: one augmented [W | b] matrix per layer, prototypes, and the
# PCA reduction, all in a single VGF1 container with a one-line sidecar.
# ---------------------------------------------------------------------------

@dataclass
class PriorArtifact:
    mlp: PriorMlp
    prototypes: PrototypeMatrix
    pca: PcaModel

    def prior_vector(self, raw_metadata_x: np.ndarray) -> np.ndarray:
        reduced = transform_vector(self.pca, raw_metadata_x)
        return prior_scores(self.mlp, reduced, self.prototypes)


def save_prior(artifact: PriorArtifact, path: str | Path) -> None:
    m, pca = artifact.mlp, artifact.pca
    records = [
        FeatureMatrix(pca.mean.reshape(1, -1)),
        FeatureMatrix(pca.components),
        FeatureMatrix(pca.eigenvalues.reshape(1, -1)),
        FeatureMatrix(np.hstack([m.w1, m.b1[:, None]])),
        FeatureMatrix(np.hstack([m.w2, m.b2[:, None]])),
        FeatureMatrix(np.hstack([m.w3, m.b3[:, None]])),
        FeatureMatrix(artifact.prototypes.matrix),
    ]
    write_records(path, records)
    Path(f"{path}.meta").write_text(
        f"format=prior-v1 d_in={m.d_in} hidden={m.hidden} d_out={m.d_out} "
        f"n_classes={artifact.prototypes.n_classes} dropout={m.dropout_rate!r} "
        f"seed={m.rng_seed} normalized={int(artifact.prototypes.normalized)} "
        f"pca_k={pca.k} pca_d={pca.d_in}\n",
        encoding="utf-8",
    )


def load_prior(path: str | Path) -> PriorArtifact:
    """Read an artifact written by ``save_prior``; any field that is missing,
    out of range or inconsistent with the stored records raises FormatError."""
    fields = read_sidecar(
        path,
        "prior-v1",
        {
            "d_in": int,
            "hidden": int,
            "d_out": int,
            "n_classes": int,
            "dropout": float,
            "seed": int,
            "normalized": int,
            "pca_k": int,
            "pca_d": int,
        },
    )
    if not 0.0 <= fields["dropout"] < 1.0:
        raise FormatError(f"{path}: dropout {fields['dropout']!r} outside [0, 1)")
    d_in, k = fields["d_in"], fields["pca_k"]
    if d_in != k:
        raise FormatError(f"{path}: prior input dim {d_in} != pca k {k}")
    records = read_records(path, 7)
    hidden, d_out = fields["hidden"], fields["d_out"]
    shapes = {
        "pca mean": (1, fields["pca_d"]),
        "pca components": (k, fields["pca_d"]),
        "pca eigenvalues": (1, k),
        "layer 1": (hidden, d_in + 1),
        "layer 2": (hidden, hidden + 1),
        "layer 3": (d_out, hidden + 1),
        "prototypes": (d_out, fields["n_classes"]),
    }
    for (name, shape), record in zip(shapes.items(), records):
        if record.values.shape != shape:
            raise FormatError(
                f"{path}: {name} record is {record.rows}x{record.dims}, "
                f"the sidecar implies {shape[0]}x{shape[1]}"
            )
    pca_mean, pca_comp, pca_eig, l1, l2, l3, proto = records
    pca = PcaModel(
        mean=pca_mean.values[0], components=pca_comp.values, eigenvalues=pca_eig.values[0]
    )
    mlp = PriorMlp(
        w1=l1.values[:, :-1],
        b1=l1.values[:, -1],
        w2=l2.values[:, :-1],
        b2=l2.values[:, -1],
        w3=l3.values[:, :-1],
        b3=l3.values[:, -1],
        dropout_rate=fields["dropout"],
        rng_seed=fields["seed"],
    )
    prototypes = PrototypeMatrix(proto.values, normalized=fields["normalized"] == 1)
    return PriorArtifact(mlp=mlp, prototypes=prototypes, pca=pca)
