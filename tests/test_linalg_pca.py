import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venomguard.data_model import FeatureMatrix, read_records, write_records
from venomguard.errors import BundleValidationError, FormatError
from venomguard.linalg_pca import (
    _fix_signs,
    fit_pca,
    load_pca,
    pca_transform,
    save_pca,
)

from oracles import oracle_eigvals_jacobi, reference_fix_signs


def fm(rows):
    return FeatureMatrix(np.asarray(rows, dtype=float))


def random_matrix(seed, n, d):
    return FeatureMatrix(np.random.default_rng(seed).standard_normal((n, d)))


class TestFit:
    def test_collinear_points_recover_diagonal_direction(self):
        model = fit_pca(fm([[0, 0], [1, 1], [2, 2], [3, 3]]), k=1)
        expected = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert np.allclose(model.components[0], expected, atol=1e-12)
        # The single component carries all the variance.
        total = np.var(np.array([0.0, 1, 2, 3]), ddof=1) * 2
        assert model.eigenvalues[0] == pytest.approx(total, abs=1e-12)

    def test_identical_rows_warn_and_zero_eigenvalue(self):
        with pytest.warns(UserWarning, match="zero-variance"):
            model = fit_pca(fm([[2.0, 3.0]] * 4), k=1)
        assert model.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)

    def test_eigenvalues_match_jacobi_iteration(self):
        X = random_matrix(11, 6, 4)
        model = fit_pca(X, k=4)
        centered = X.values - X.values.mean(axis=0)
        cov = centered.T @ centered / (X.rows - 1)
        expected = oracle_eigvals_jacobi(cov.tolist())
        assert np.allclose(model.eigenvalues, expected[:4], atol=1e-8)

    def test_eigenvalues_non_increasing_and_non_negative(self):
        model = fit_pca(random_matrix(5, 20, 7), k=7)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= -1e-12)

    def test_sign_convention_fixes_largest_entry_non_negative(self):
        for seed in range(8):
            model = fit_pca(random_matrix(seed, 10, 5), k=5)
            for row in model.components:
                assert row[np.argmax(np.abs(row))] >= 0

    @settings(max_examples=200, deadline=None)
    @given(
        components=st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
            lambda shape: st.lists(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.0]) | st.floats(-3, 3),
                min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
            ).map(lambda v: np.reshape(v, shape))
        )
    )
    def test_sign_fix_equals_the_per_row_loop(self, components):
        # ties in magnitude and signed zeros included: the bytes must match
        assert _fix_signs(components).tobytes() == reference_fix_signs(components).tobytes()

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="2 samples"):
            fit_pca(fm([[1.0, 2.0]]), k=1)

    def test_k_out_of_range_rejected(self):
        X = random_matrix(0, 4, 3)
        for bad_k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                fit_pca(X, k=bad_k)

    def test_explained_variance_bounded_by_total(self):
        X = random_matrix(2, 30, 6)
        total = np.var(X.values, axis=0, ddof=1).sum()
        for k in (1, 3, 6):
            model = fit_pca(X, k)
            assert model.eigenvalues.sum() <= total + 1e-8
        assert fit_pca(X, 6).eigenvalues.sum() == pytest.approx(total, abs=1e-8)


class TestTransform:
    def test_mean_row_maps_to_origin(self):
        X = random_matrix(3, 12, 5)
        model = fit_pca(X, k=3)
        out = pca_transform(model, FeatureMatrix(X.values.mean(axis=0, keepdims=True)))
        assert np.allclose(out.values, 0.0, atol=1e-10)

    def test_full_rank_reconstruction(self):
        X = random_matrix(4, 10, 4)
        model = fit_pca(X, k=4)
        back = pca_transform(model, X).values @ model.components + model.mean
        assert np.allclose(back, X.values, atol=1e-8)

    def test_low_rank_data_reconstructs_with_few_components(self):
        rng = np.random.default_rng(6)
        X = FeatureMatrix(rng.standard_normal((15, 2)) @ rng.standard_normal((2, 6)))
        model = fit_pca(X, k=2)
        back = pca_transform(model, X).values @ model.components + model.mean
        assert np.allclose(back, X.values, atol=1e-8)

    def test_components_orthonormal(self):
        model = fit_pca(random_matrix(7, 25, 8), k=5)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_projection_idempotent(self):
        X = random_matrix(8, 14, 6)
        model = fit_pca(X, k=3)
        once = pca_transform(model, X)
        again = pca_transform(model, FeatureMatrix(once.values @ model.components + model.mean))
        assert np.allclose(again.values, once.values, atol=1e-10)

    def test_matrix_and_vector_paths_agree(self):
        X = random_matrix(9, 6, 4)
        model = fit_pca(X, k=2)
        reduced = pca_transform(model, X)
        for i in range(X.rows):
            row = pca_transform(model, FeatureMatrix(X.values[i : i + 1]))
            assert np.allclose(reduced.values[i], row.values[0], atol=1e-12)

    def test_dimension_mismatches_rejected(self):
        model = fit_pca(random_matrix(1, 6, 4), k=2)
        with pytest.raises(BundleValidationError, match="on 4 metadata dims, the data has 5"):
            pca_transform(model, fm(np.zeros((2, 5))))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 12),
        d=st.integers(2, 6),
        data=st.data(),
    )
    def test_transform_never_gains_energy(self, seed, n, d, data):
        # Projection onto an orthonormal basis cannot lengthen a centered row.
        k = data.draw(st.integers(1, min(n, d)))
        X = random_matrix(seed, n, d)
        model = fit_pca(X, k)
        centered = X.values - model.mean
        reduced = pca_transform(model, X).values
        norms_in = np.linalg.norm(centered, axis=1)
        norms_out = np.linalg.norm(reduced, axis=1)
        assert np.all(norms_out <= norms_in + 1e-9)


class TestPersistence:
    def test_round_trip_preserves_float32_model(self, tmp_path):
        X = FeatureMatrix(
            np.random.default_rng(10)
            .standard_normal((9, 5))
            .astype(np.float32)
            .astype(np.float64)
        )
        model = fit_pca(X, k=3)
        # Quantize so the stored single-precision copy is exact.
        model.mean = model.mean.astype(np.float32).astype(np.float64)
        model.components = model.components.astype(np.float32).astype(np.float64)
        model.eigenvalues = model.eigenvalues.astype(np.float32).astype(np.float64)
        path = tmp_path / "pca.bin"
        save_pca(model, path)
        loaded = load_pca(path)
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert [p.name for p in tmp_path.iterdir()] == ["pca.bin"]

    @pytest.mark.parametrize(
        "record, shape, problem",
        [
            pytest.param(0, (1, 5), "pca mean record is 1x5, expected 1x4", id="mean"),
            pytest.param(0, (2, 4), "pca mean record is 2x4, expected 1x4", id="mean_rows"),
            pytest.param(
                1, (3, 4), "pca eigenvalues record is 1x2, expected 1x3", id="components"
            ),
            pytest.param(
                2, (1, 3), "pca eigenvalues record is 1x3, expected 1x2", id="eigenvalues"
            ),
        ],
    )
    def test_chain_breaks_are_format_errors(self, tmp_path, record, shape, problem):
        path = tmp_path / "pca.bin"
        save_pca(fit_pca(random_matrix(12, 8, 4), k=2), path)
        records = read_records(path, 3)
        records[record] = FeatureMatrix(np.ones(shape))
        write_records(path, records)
        with pytest.raises(FormatError, match=problem):
            load_pca(path)

    def test_loaded_model_transforms_identically(self, tmp_path):
        X = random_matrix(13, 10, 6)
        model = fit_pca(X, k=4)
        path = tmp_path / "pca.bin"
        save_pca(model, path)
        loaded = load_pca(path)
        a = pca_transform(model, X).values
        b = pca_transform(loaded, X).values
        # Storage quantizes to single precision.
        assert np.allclose(a, b, atol=1e-5)
