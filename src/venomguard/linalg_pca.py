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

from .data_model import FeatureMatrix, read_records, read_sidecar, write_records
from .errors import FormatError


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
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def fit_pca(matrix: FeatureMatrix, k: int) -> PcaModel:
    """Fit the top-k principal components of the sample covariance of ``matrix``."""
    X = matrix.values
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
    if matrix.dims != model.d_in:
        raise ValueError(f"expected {model.d_in} input dims, got {matrix.dims}")
    return FeatureMatrix((matrix.values - model.mean) @ model.components.T)


def pca_inverse(model: PcaModel, matrix: FeatureMatrix) -> FeatureMatrix:
    if matrix.dims != model.k:
        raise ValueError(f"expected {model.k} reduced dims, got {matrix.dims}")
    return FeatureMatrix(matrix.values @ model.components + model.mean)


def transform_vector(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.d_in,):
        raise ValueError(f"expected vector of length {model.d_in}, got {x.shape}")
    return model.components @ (x - model.mean)


def save_pca(model: PcaModel, path: str | Path) -> None:
    """Three stacked VGF1 records (mean, components, eigenvalues) + one-line sidecar."""
    write_records(
        path,
        [
            FeatureMatrix(model.mean.reshape(1, -1)),
            FeatureMatrix(model.components),
            FeatureMatrix(model.eigenvalues.reshape(1, -1)),
        ],
    )
    Path(f"{path}.meta").write_text(
        f"format=pca-v1 k={model.k} d={model.d_in}\n", encoding="utf-8"
    )


def load_pca(path: str | Path) -> PcaModel:
    mean_m, comp_m, eig_m = read_records(path, 3)
    fields = read_sidecar(path, "pca-v1", {"k": int, "d": int})
    k, d = fields["k"], fields["d"]
    if comp_m.values.shape != (k, d):
        raise FormatError(
            f"{path}: sidecar says {k}x{d}, file holds {comp_m.values.shape}"
        )
    return PcaModel(
        mean=mean_m.values[0],
        components=comp_m.values,
        eigenvalues=eig_m.values[0],
    )
