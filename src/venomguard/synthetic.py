"""Deterministic long-tailed synthetic datasets.

The generator produces a complete bundle whose image scores are noisy
one-hot logits and whose location metadata carries a tunable amount of
class signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.dtypes import StringDType

from .data_model import (
    CLASSES_FILENAME,
    EMBEDDINGS_FILENAME,
    LOCATIONS_FILENAME,
    METADATA_FILENAME,
    OBSERVATIONS_FILENAME,
    SCORES_FILENAME,
    ClassTable,
    DatasetBundle,
    FeatureMatrix,
    LocationTable,
    ObservationTable,
    write_manifest,
    write_records,
)

TRUTH_FILENAME = "truth.csv"
MANIFEST_FILENAME = "manifest.txt"

# Signal levels chosen so image scores alone are mediocre while location
# metadata is informative enough for a trained prior to help.
LOGIT_SCALE = 2.0
LOGIT_NOISE = 1.0
EMBED_SCALE = 1.0
EMBED_NOISE = 0.25
CLUSTER_NOISE = 0.05
# rows of image logits drawn in float64 at a time
_SCORE_BLOCK_ROWS = 4096


@dataclass
class SynthConfig:
    seed: int = 7
    n_classes: int = 50
    imbalance_ratio: float = 100.0
    dims_meta: int = 8
    dims_proto: int = 16
    venom_fraction: float = 0.25
    location_informativeness: float = 0.8
    n_observations: int = 5000
    images_per_observation: tuple[int, int] = (1, 3)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if min(self.n_classes, self.dims_meta, self.dims_proto, self.n_observations) < 1:
            raise ValueError("counts must be >= 1")
        if not 1 <= self.imbalance_ratio < math.inf:
            raise ValueError("imbalance_ratio must be finite and >= 1")
        if not 0.0 <= self.venom_fraction <= 1.0:
            raise ValueError("venom_fraction must be in [0, 1]")
        if not 0.0 <= self.location_informativeness <= 1.0:
            raise ValueError("location_informativeness must be in [0, 1]")
        lo, hi = self.images_per_observation
        if not 1 <= lo <= hi:
            raise ValueError("images_per_observation must be an increasing range from >= 1")
        if self.n_observations < self.n_classes:
            raise ValueError("need at least one observation per class")


@dataclass
class GeneratedData:
    bundle: DatasetBundle
    truth: dict[str, int]
    class_counts: np.ndarray
    config: SynthConfig


def power_law_counts(n_obs: int, n_classes: int, ratio: float) -> np.ndarray:
    """Apportion observations with head:tail frequency ratio, minimum 1 each.

    Largest-remainder rounding keeps the split deterministic; ties go to
    the lower class id.
    """
    if n_classes == 1:
        return np.array([n_obs], dtype=np.int64)
    expo = np.arange(n_classes) / (n_classes - 1)
    weights = ratio ** (-expo)
    quotas = n_obs * weights / weights.sum()
    counts = np.floor(quotas).astype(np.int64)
    frac = quotas - counts
    order = np.lexsort((np.arange(n_classes), -frac))
    counts[order[: n_obs - counts.sum()]] += 1
    while (counts == 0).any():
        zero = int(np.argmax(counts == 0))
        donor = int(np.argmax(counts))
        if counts[donor] <= 1:
            raise ValueError("not enough observations to cover every class")
        counts[donor] -= 1
        counts[zero] += 1
    return counts


def generate(cfg: SynthConfig) -> GeneratedData:
    """Build a full in-memory dataset; bitwise deterministic per seed.

    The order of the random draws below fixes the dataset for each seed:
    reordering or merging draws, or changing their dtype, gives a different
    dataset at the same seed. Splitting one draw into blocks of whole rows,
    drawn in order, does not: the image logits are drawn that way.

    The image scores are float32, the values ``write_dataset`` stores; the
    metadata and embeddings are float64.
    """
    rng = np.random.default_rng(cfg.seed)
    c = cfg.n_classes
    n = cfg.n_observations
    counts = power_law_counts(n, c, cfg.imbalance_ratio)

    n_venom = math.ceil(cfg.venom_fraction * c)
    venomous = np.zeros(c, dtype=bool)
    if n_venom:
        venomous[rng.choice(c, size=n_venom, replace=False)] = True
    centers = rng.uniform(0.0, 1.0, size=(c, cfg.dims_meta))
    protos = rng.standard_normal((c, cfg.dims_proto))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    labels = np.repeat(np.arange(c), counts)
    labels = labels[rng.permutation(n)]

    # observation i owns the next images[i] image rows and location i
    lo, hi = cfg.images_per_observation
    images = rng.integers(lo, hi + 1, size=n)
    owner = np.repeat(np.arange(n), images)
    image_labels = labels[owner]

    alpha = cfg.location_informativeness
    cluster = centers[labels] + CLUSTER_NOISE * rng.standard_normal((n, cfg.dims_meta))
    metadata = alpha * cluster + (1.0 - alpha) * rng.uniform(0.0, 1.0, (n, cfg.dims_meta))

    # float32, as write_dataset stores them: each block of rows is drawn and
    # shifted in float64, then narrowed, which gives one whole draw's values
    logits = np.empty((owner.size, c), dtype=np.float32)
    block = np.empty((min(owner.size, _SCORE_BLOCK_ROWS), c))
    for start in range(0, owner.size, _SCORE_BLOCK_ROWS):
        stop = min(start + _SCORE_BLOCK_ROWS, owner.size)
        rows = block[: stop - start]
        rng.standard_normal(out=rows)
        rows *= LOGIT_NOISE
        rows[np.arange(stop - start), image_labels[start:stop]] += LOGIT_SCALE
        logits[start:stop] = rows
    embeddings = rng.standard_normal((owner.size, cfg.dims_proto))
    embeddings *= EMBED_NOISE
    embeddings += (EMBED_SCALE * protos)[image_labels]

    # equal-width numbers keep the ids and codes in str order at any size
    width = max(5, len(str(n - 1)))
    obs_ids = [f"obs_{i:0{width}d}" for i in range(n)]
    loc_codes = np.asarray([f"loc_{i:0{width}d}" for i in range(n)], dtype=StringDType())
    observations = ObservationTable.from_columns(
        np.asarray(obs_ids, dtype=StringDType())[owner],
        np.arange(owner.size),
        image_labels,
        loc_codes[owner],
    )
    truth = dict(zip(obs_ids, labels.tolist()))
    classes = ClassTable([f"species_{k:03d}" for k in range(c)], venomous)
    bundle = DatasetBundle(
        classes=classes,
        observations=observations,
        image_scores=FeatureMatrix(logits),
        metadata_features=FeatureMatrix(metadata),
        locations=LocationTable(loc_codes, np.arange(n)),
        embeddings=FeatureMatrix(embeddings),
    )
    return GeneratedData(bundle=bundle, truth=truth, class_counts=counts, config=cfg)


def write_dataset(gen: GeneratedData, directory: str | Path) -> None:
    """Write the bundle, ground truth, and a config manifest to a directory."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    bundle = gen.bundle

    classes = bundle.classes
    write_manifest(
        d / CLASSES_FILENAME,
        ["class_id", "name", "venomous"],
        [
            range(classes.n_classes),
            classes.names.tolist(),
            classes.venomous_flags.astype(int).tolist(),
        ],
    )
    # string columns are gathered as Python objects, which the gather shares;
    # gathering a StringDType array copies every string
    obs = bundle.observations
    write_manifest(
        d / OBSERVATIONS_FILENAME,
        ["observation_id", "image_index", "class_id", "location_code"],
        [
            obs.ids.astype(object)[obs.group].tolist(),
            obs.image_index.tolist(),
            ["" if cid < 0 else cid for cid in obs.class_id.tolist()],
            obs.codes.astype(object)[obs.location].tolist(),
        ],
    )
    # in metadata row order, which is the generator's order
    locations = bundle.locations
    order = np.argsort(locations.index, kind="stable")
    write_manifest(
        d / LOCATIONS_FILENAME,
        ["location_code", "metadata_index"],
        [locations.codes.astype(object)[order].tolist(), locations.index[order].tolist()],
    )
    truth_ids = sorted(gen.truth)
    write_manifest(
        d / TRUTH_FILENAME,
        ["observation_id", "class_id"],
        [truth_ids, [gen.truth[obs_id] for obs_id in truth_ids]],
    )

    write_records(d / SCORES_FILENAME, [bundle.image_scores])
    write_records(d / METADATA_FILENAME, [bundle.metadata_features])
    if bundle.embeddings is not None:
        write_records(d / EMBEDDINGS_FILENAME, [bundle.embeddings])

    cfg = gen.config
    manifest = [
        f"seed = {cfg.seed}",
        f"n_classes = {cfg.n_classes}",
        f"imbalance_ratio = {cfg.imbalance_ratio!r}",
        f"dims_meta = {cfg.dims_meta}",
        f"dims_proto = {cfg.dims_proto}",
        f"venom_fraction = {cfg.venom_fraction!r}",
        f"location_informativeness = {cfg.location_informativeness!r}",
        f"n_observations = {cfg.n_observations}",
        f"images_per_observation = {cfg.images_per_observation[0]}-{cfg.images_per_observation[1]}",
        f"head_count = {int(gen.class_counts.max())}",
        f"tail_count = {int(gen.class_counts.min())}",
    ]
    (d / MANIFEST_FILENAME).write_text("\n".join(manifest) + "\n", encoding="utf-8")
