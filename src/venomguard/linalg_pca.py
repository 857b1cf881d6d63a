"""PCA for reducing metadata feature vectors.

Fitting runs an SVD of the mean-centered sample matrix; eigenvalues use the
unbiased 1/(n-1) covariance normalization. Component signs follow a fixed
convention so results are identical across runs and platforms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_model import FeatureMatrix, read_records, write_records
from .errors import BundleValidationError, FormatError


@dataclass
class PcaModel:
    mean: np.ndarray          # (d_in,)
    components: np.ndarray    # (k, d_in), orthonormal rows
    eigenvalues: np.ndarray   # (k,), non-negative, non-increasing

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def d_in(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is non-negative."""
    peak = np.argmax(np.abs(components), axis=1)
    flip = components[np.arange(peak.size), peak] < 0
    return np.where(flip[:, None], -components, components)


def fit_pca(matrix: FeatureMatrix, k: int) -> PcaModel:
    """Fit the top-k principal components of the sample covariance of ``matrix``.

    The rows are widened to float64 first: the mean and the SVD accumulate
    in float64 whatever precision the matrix holds.
    """
    X = np.asarray(matrix.values, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError(f"need at least 2 samples to fit, got {n}")
    if not 1 <= k <= min(n, d):
        raise ValueError(f"k={k} out of range [1, {min(n, d)}]")
    mean = X.mean(axis=0)
    centered = X - mean
    # Rows of vt are right singular vectors = covariance eigenvectors.
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = (s * s) / (n - 1)
    if eigenvalues[0] <= 0.0:
        warnings.warn("zero-variance input: components are an arbitrary orthonormal basis")
    components = _fix_signs(vt[:k])
    return PcaModel(mean=mean, components=components, eigenvalues=eigenvalues[:k])


def pca_transform(model: PcaModel, matrix: FeatureMatrix) -> FeatureMatrix:
    """Reduce ``matrix``'s rows; BundleValidationError if their width is not
    the one the model was fitted on."""
    if matrix.dims != model.d_in:
        raise BundleValidationError(
            f"PCA was fitted on {model.d_in} metadata dims, the data has {matrix.dims}"
        )
    return FeatureMatrix((matrix.values - model.mean) @ model.components.T)


def pca_inverse(model: PcaModel, matrix: FeatureMatrix) -> FeatureMatrix:
    if matrix.dims != model.k:
        raise ValueError(f"expected {model.k} reduced dims, got {matrix.dims}")
    return FeatureMatrix(matrix.values @ model.components + model.mean)


# Each record of a model file, in file order, with the shape it must have.
# pca d and k come from the components, hidden from layer 2, d_out from layer 3
# and the class count from the prototypes, so every other shape is checked
# against them.
_RECORDS = (
    ("pca mean", "1 x pca d"),
    ("pca components", "pca k x pca d"),
    ("pca eigenvalues", "1 x pca k"),
    ("layer 1", "hidden x (pca k + 1)"),
    ("layer 2", "hidden x (hidden + 1)"),
    ("layer 3", "d_out x (hidden + 1)"),
    ("prototypes", "d_out x classes"),
)


def check_record_shapes(path: str | Path, records: list[FeatureMatrix]) -> None:
    """Raise FormatError naming the first record whose shape breaks the chain.

    ``records`` are the three of a PCA file (mean, components, eigenvalues)
    or the seven of a prior artifact, which adds the MLP layers as augmented
    ``[W | b]`` matrices and the prototypes.
    """
    shapes = [m.values.shape for m in records]
    k, d = shapes[1]
    expected = [(1, d), (k, d), (1, k)]
    if len(shapes) == len(_RECORDS):
        hidden, d_out, classes = shapes[4][0], shapes[5][0], shapes[6][1]
        expected += [
            (hidden, k + 1), (hidden, hidden + 1), (d_out, hidden + 1), (d_out, classes)
        ]
    for (name, rule), shape, want in zip(_RECORDS, shapes, expected):
        if shape != want:
            raise FormatError(
                f"{path}: {name} record is {shape[0]}x{shape[1]}, "
                f"expected {want[0]}x{want[1]} ({rule})"
            )


def pca_records(model: PcaModel) -> list[FeatureMatrix]:
    """The model as the three records a model file stores: mean, components,
    eigenvalues."""
    return [
        FeatureMatrix(model.mean.reshape(1, -1)),
        FeatureMatrix(model.components),
        FeatureMatrix(model.eigenvalues.reshape(1, -1)),
    ]


def pca_from_records(records: list[FeatureMatrix]) -> PcaModel:
    """The model of a file's three records, its parameters widened to float64."""
    mean, components, eigenvalues = (np.asarray(r.values, dtype=np.float64) for r in records)
    return PcaModel(mean=mean[0], components=components, eigenvalues=eigenvalues[0])


def save_pca(model: PcaModel, path: str | Path) -> None:
    """Write the model as one VGF1 file of its three records."""
    write_records(path, pca_records(model))


def load_pca(path: str | Path) -> PcaModel:
    records = read_records(path, 3)
    check_record_shapes(path, records)
    return pca_from_records(records)
