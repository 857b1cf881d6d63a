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
        # work arrays that loc_loss_batch reuses while train_prior runs
        self._train_buffers: _StepBuffers | None = None

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

    def draw_masks(self, batch: int, out: np.ndarray | None = None) -> np.ndarray:
        """Inverted-dropout masks for one location-loss evaluation, (4, batch, hidden).

        In order: both hidden layers of the observed-location pass, then both
        of the random-location pass, drawn in one call. ``out``, a float64
        array of that shape, receives the masks instead of a new array.
        """
        shape = (4, batch, self.hidden)
        keep = 1.0 - self.dropout_rate
        if self.dropout_rate == 0.0:
            masks = np.empty(shape) if out is None else out
            masks.fill(1.0)
            return masks
        masks = self._mask_rng.random(shape, out=out)
        # (uniform < keep) / keep, with the comparison written as 0.0 or 1.0
        np.less(masks, keep, out=masks)
        masks /= keep
        return masks


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

class _StepBuffers:
    """Work arrays for the location loss of one batch, its observed rows
    stacked on its random rows.

    ``train_prior`` sizes one set for its whole run, so its steps write into
    the same arrays instead of faulting in fresh pages every step; numpy
    raises if a step's shapes differ. A bare instance holds None everywhere,
    and each op given one of its slots then allocates its result.
    """

    x = z1 = h1 = z2 = h2 = emb = relu = dz1 = dz2 = u = s = masks = grads = None

    @classmethod
    def sized(cls, model: PriorMlp, batch: int, n_classes: int) -> "_StepBuffers":
        work = cls()
        rows, hidden = 2 * batch, model.hidden
        work.x = np.empty((rows, model.d_in))
        work.z1, work.h1, work.z2, work.h2, work.dz1, work.dz2 = (
            np.empty((rows, hidden)) for _ in range(6)
        )
        work.relu = np.empty((rows, hidden), bool)
        work.emb = np.empty((rows, model.d_out))
        work.u, work.s = np.empty((rows, n_classes)), np.empty((rows, n_classes))
        work.masks = np.empty((4, batch, hidden))
        work.grads = np.empty(_n_params(model))
        return work


_ALLOCATE = _StepBuffers()


def _mul_blocks(a: np.ndarray, mask: np.ndarray) -> None:
    """a *= mask in place; ``mask`` has a's shape, or a's rows split into
    equal blocks, e.g. (2, rows // 2, hidden) against (rows, hidden)."""
    view = a.reshape(mask.shape)
    view *= mask


def _forward(model: PriorMlp, x_rows: np.ndarray, masks=None, work=_ALLOCATE):
    """Batched forward pass; returns output and the cache backprop needs.

    ``masks`` holds one dropout mask per hidden layer (see ``_mul_blocks``
    for their shapes); ``work`` supplies the arrays written.
    """
    z1 = np.matmul(x_rows, model.w1.T, out=work.z1)
    z1 += model.b1
    h1 = np.maximum(z1, 0.0, out=work.h1)
    if masks is not None:
        _mul_blocks(h1, masks[0])
    z2 = np.matmul(h1, model.w2.T, out=work.z2)
    z2 += model.b2
    h2 = np.maximum(z2, 0.0, out=work.h2)
    if masks is not None:
        _mul_blocks(h2, masks[1])
    out = np.matmul(h2, model.w3.T, out=work.emb)
    out += model.b3
    return out, (x_rows, z1, h1, z2, h2, masks)


def _backward(model: PriorMlp, cache, d_out: np.ndarray, work=_ALLOCATE) -> MlpGrads:
    """Parameter gradients, as views of one flat vector in ``pack_params``
    order: ``work.grads`` when it is set."""
    x_rows, z1, h1, z2, h2, masks = cache
    flat = np.empty(_n_params(model)) if work.grads is None else work.grads
    g = MlpGrads(**_param_views(model, flat))
    np.matmul(d_out.T, h2, out=g.w3)
    np.sum(d_out, axis=0, out=g.b3)
    # dh2, then through layer 2's dropout mask and ReLU to dz2
    dz2 = np.matmul(d_out, model.w3, out=work.dz2)
    if masks is not None:
        _mul_blocks(dz2, masks[1])
    dz2 *= np.greater(z2, 0.0, out=work.relu)
    np.matmul(dz2.T, h1, out=g.w2)
    np.sum(dz2, axis=0, out=g.b2)
    dz1 = np.matmul(dz2, model.w2, out=work.dz1)
    if masks is not None:
        _mul_blocks(dz1, masks[0])
    dz1 *= np.greater(z1, 0.0, out=work.relu)
    np.matmul(dz1.T, x_rows, out=g.w1)
    np.sum(dz1, axis=0, out=g.b1)
    return g


def _sigmoid(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stable logistic: 1 / (1 + e^-u) for u >= 0, e^u / (1 + e^u) below.

    The result goes to ``out`` (a new array when None); ``u`` is used as
    scratch space and overwritten.
    """
    nonneg = u >= 0
    e = np.abs(u, out=u)
    np.negative(e, out=e)
    np.exp(e, out=e)  # e^-|u| <= 1
    den = np.add(e, 1.0, out=out)
    # the numerator is 1 where u >= 0 and e^-|u| = e^u elsewhere; e <= 1
    # makes the maximum pick exactly that
    num = np.maximum(e, nonneg, out=e)
    return np.divide(num, den, out=den)


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
    clamped to [1e-12, 1 - 1e-12] before the log. ``masks`` are the
    (4, batch, hidden) ones of ``PriorMlp.draw_masks``. During
    ``train_prior`` the gradients are views of arrays the next step reuses.
    """
    proto = prototypes.matrix
    batch = x_rows.shape[0]
    work = _ALLOCATE if model._train_buffers is None else model._train_buffers
    # one pass over the observed rows stacked on the random rows; the
    # backward pass then sums both halves' parameter gradients. masks[0::2]
    # are layer 1's masks of both halves and masks[1::2] layer 2's, each
    # (2, batch, hidden) against the stacked (rows, hidden) activations.
    x = np.concatenate((x_rows, r_rows), out=work.x)
    stacked_masks = None if masks is None else (masks[0::2], masks[1::2])
    emb, cache = _forward(model, x, stacked_masks, work)
    u = np.matmul(emb, proto, out=work.u)
    s = _sigmoid(u, out=work.s)  # observed rows, then random rows
    labels = (np.arange(batch), ys)

    s_pos = np.clip(s[labels], PROB_CLAMP, 1.0 - PROB_CLAMP)
    neg_logs = np.subtract(1.0, s, out=u)  # u is spent
    np.clip(neg_logs, PROB_CLAMP, 1.0 - PROB_CLAMP, out=neg_logs)
    np.log(neg_logs, out=neg_logs)
    neg_logs[labels] = 0.0
    total = -lam * np.log(s_pos).sum() - neg_logs.sum()
    if not np.isfinite(total):
        raise ValueError("non-finite location loss")

    # s becomes dL/du: s itself, but -lam (1 - s) at each observed label
    s[labels] = -lam * (1.0 - s[labels])
    d_emb = np.matmul(s, proto.T, out=emb)  # emb is spent
    d_emb /= batch
    grads = _backward(model, cache, d_emb, work)
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
    # the model's weights become views of params, which each step overwrites
    params = pack_params(model)
    unpack_params(model, params)
    opt = AdamWState.zeros(
        params.size,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.eps,
        weight_decay=cfg.weight_decay,
    )
    # loc_loss_batch finds the buffers on the model; _backward writes each
    # step's gradients into work.grads
    work = model._train_buffers = _StepBuffers.sized(model, cfg.batch_size, n_classes)

    trace: list[float] = []
    step = 0
    try:
        for _ in range(cfg.epochs):
            epoch_losses = []
            for _ in range(steps_per_epoch):
                idx = sampler.draw(cfg.batch_size)
                rb = loc_rng.uniform(lo, hi, size=(cfg.batch_size, d_in))
                masks = None
                if cfg.dropout_rate > 0.0:
                    masks = model.draw_masks(cfg.batch_size, out=work.masks)
                result = loc_loss_batch(
                    model, x_all[idx], rb, y_all[idx], prototypes, cfg.lam, masks
                )
                params[:] = adamw_step(params, work.grads, opt, lr_at(schedule, step))
                epoch_losses.append(result.value)
                step += 1
            trace.append(float(np.mean(epoch_losses)))
    finally:
        model._train_buffers = None
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


def _n_params(model: PriorMlp) -> int:
    return sum(getattr(model, f).size for f in _PARAM_FIELDS)


def _param_views(model: PriorMlp, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Each parameter's slice of a ``pack_params``-ordered vector, shaped as
    the parameter."""
    views, offset = {}, 0
    for f in _PARAM_FIELDS:
        shape = getattr(model, f).shape
        size = math.prod(shape)
        views[f] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def unpack_params(model: PriorMlp, flat: np.ndarray) -> None:
    for f, view in _param_views(model, flat).items():
        setattr(model, f, view)


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
