"""Tests for Gaussian data sources and the data/noise samplers."""

import numpy as np
import pytest

from kdiff_lab import (
    DimError,
    GaussianSource,
    derive_rng,
    random_orthonormal_basis,
    sample_data,
    sample_noise,
)


class TestBasis:
    def test_columns_orthonormal(self):
        basis = random_orthonormal_basis(64, 4, np.random.default_rng(42))
        gram = basis.eigenvectors.T @ basis.eigenvectors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_single_column(self):
        basis = random_orthonormal_basis(3, 1, np.random.default_rng(0))
        assert basis.eigenvectors.T @ basis.eigenvectors == pytest.approx(1.0, abs=1e-12)

    def test_square_case_is_orthogonal(self):
        basis = random_orthonormal_basis(5, 5, np.random.default_rng(1))
        np.testing.assert_allclose(basis.projector(), np.eye(5), atol=1e-10)

    def test_projector_idempotent_and_symmetric(self):
        basis = random_orthonormal_basis(12, 3, np.random.default_rng(2))
        proj = basis.projector()
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
        np.testing.assert_allclose(proj, proj.T, atol=1e-14)

    def test_deterministic_given_seed(self):
        a = random_orthonormal_basis(16, 4, np.random.default_rng(7)).eigenvectors
        b = random_orthonormal_basis(16, 4, np.random.default_rng(7)).eigenvectors
        np.testing.assert_array_equal(a, b)

    def test_unit_eigenvalues_make_the_basis_its_own_factor(self):
        basis = random_orthonormal_basis(9, 3, np.random.default_rng(3))
        np.testing.assert_array_equal(basis.eigenvalues, np.ones(3))
        assert np.array_equal(basis.factor, basis.eigenvectors)
        assert basis.ambient_dim == 9

    def test_non_orthonormal_vectors_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            GaussianSource(np.array([[1.0, 0.1], [0.0, 1.0]]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("shape, count", [((3, 2), 3), ((2, 3), 3), ((4,), 4)])
    def test_eigenvector_shape_must_match_the_eigenvalues(self, shape, count):
        with pytest.raises(DimError):
            GaussianSource(np.zeros(shape), np.ones(count))

    def test_projector_leaves_out_zero_eigenvalues(self):
        q = random_orthonormal_basis(6, 4, np.random.default_rng(4)).eigenvectors
        source = GaussianSource(q, np.array([2.0, 0.0, 0.5, 0.0]))
        support = q[:, [0, 2]]
        np.testing.assert_allclose(source.projector(), support @ support.T, atol=1e-15)

    def test_dim_error(self):
        with pytest.raises(DimError):
            random_orthonormal_basis(3, 4, np.random.default_rng(0))
        with pytest.raises(DimError):
            random_orthonormal_basis(3, 0, np.random.default_rng(0))


class TestSampleData:
    def test_rows_lie_in_span(self):
        basis = random_orthonormal_basis(10, 3, np.random.default_rng(3))
        x = sample_data(basis, 200, np.random.default_rng(4))
        off = x - x @ basis.projector()
        assert np.max(np.abs(off)) < 1e-10

    def test_latents_are_whitened(self):
        basis = random_orthonormal_basis(8, 2, np.random.default_rng(5))
        x = sample_data(basis, 1_000_000, np.random.default_rng(6))
        latents = x @ basis.eigenvectors
        second = latents.T @ latents / len(latents)
        assert np.max(np.abs(second - np.eye(2))) < 5e-3

    def test_one_dimensional_manifold_is_a_line(self):
        basis = random_orthonormal_basis(6, 1, np.random.default_rng(8))
        x = sample_data(basis, 50, np.random.default_rng(9))
        directions = x / np.linalg.norm(x, axis=1, keepdims=True)
        column = basis.eigenvectors[:, 0]
        agreement = np.abs(directions @ column)
        np.testing.assert_allclose(agreement, 1.0, atol=1e-12)

    def test_independent_streams_uncorrelated(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(10))
        x = sample_data(basis, 200_000, derive_rng(0, "test", "data"))
        n = sample_noise(6, 200_000, derive_rng(0, "test", "noise"))
        cross = x.T @ n / len(x)
        # entries are ~Normal(0, 1/sqrt(N)); generous multiple, fixed seed
        assert np.max(np.abs(cross)) < 5.0 / np.sqrt(len(x))


class TestSampleNoise:
    def test_moments(self):
        n = sample_noise(4, 1_000_000, np.random.default_rng(11))
        assert np.max(np.abs(n.mean(axis=0))) < 3.5 / np.sqrt(len(n))
        cov = n.T @ n / len(n)
        assert np.max(np.abs(cov - np.eye(4))) < 5e-3

    def test_deterministic_given_seed(self):
        a = sample_noise(5, 10, np.random.default_rng(12))
        b = sample_noise(5, 10, np.random.default_rng(12))
        np.testing.assert_array_equal(a, b)


class TestColoredCovariance:
    def test_zero_covariance_gives_zero_samples(self):
        cov = GaussianSource.from_spectrum(np.zeros(4))
        assert cov.eigenvectors.shape == (4, 0) and cov.ambient_dim == 4
        x = sample_data(cov, 100, np.random.default_rng(13))
        np.testing.assert_array_equal(x, np.zeros((100, 4)))
        np.testing.assert_array_equal(cov.projector(), np.zeros((4, 4)))

    def test_identity_covariance_trace(self):
        cov = GaussianSource.from_spectrum(np.ones(6))
        x = sample_data(cov, 500_000, np.random.default_rng(14))
        trace = float(np.sum(x * x) / len(x))
        # tr estimate has std sqrt(2 D / N)
        assert abs(trace - 6.0) < 3.0 * np.sqrt(2.0 * 6.0 / len(x))

    def test_projector_covariance_matches_manifold_sampler(self):
        # the 0/1 spectrum on a full rotation whose first d columns are the manifold's basis
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(16))
        q, _ = np.linalg.qr(np.hstack([basis.eigenvectors, np.random.default_rng(19).standard_normal((6, 4))]))
        cov = GaussianSource(q, np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(cov.projector(), basis.projector(), atol=1e-12)
        a = sample_data(cov, 100_000, np.random.default_rng(17))
        b = sample_data(basis, 100_000, np.random.default_rng(18))
        cov_a = a.T @ a / len(a)
        cov_b = b.T @ b / len(b)
        assert np.max(np.abs(cov_a - cov_b)) < 6.0 / np.sqrt(len(a))

    def test_zero_eigenvalue_columns_are_dropped(self):
        q, _ = np.linalg.qr(np.random.default_rng(21).standard_normal((7, 5)))
        lam = np.array([0.0, 2.0, 0.0, 0.5, 2.0])
        full, support = GaussianSource(q, lam), GaussianSource(q[:, lam > 0.0], lam[lam > 0.0])
        for name in ("eigenvectors", "eigenvalues", "factor"):
            np.testing.assert_array_equal(getattr(full, name), getattr(support, name))
        np.testing.assert_array_equal(
            sample_data(full, 50, np.random.default_rng(22)), sample_data(support, 50, np.random.default_rng(22))
        )
        # a dropped column is not checked for orthonormality
        loose = GaussianSource(np.hstack([q[:, :2], np.ones((7, 1))]), [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(loose.eigenvectors, q[:, :2])

    def test_spectrum_lies_along_the_standard_basis(self):
        # a zero eigenvalue keeps no column, so a row draws one latent per positive one
        cov = GaussianSource.from_spectrum([4.0, 0.0, 0.25])
        np.testing.assert_array_equal(cov.factor, np.diag([2.0, 0.0, 0.5])[:, [0, 2]])
        np.testing.assert_array_equal(cov.factor @ cov.factor.T, np.diag([4.0, 0.0, 0.25]))
        assert cov.ambient_dim == 3
        assert sample_data(cov, 5, np.random.default_rng(20)).shape == (5, 3)
        np.testing.assert_array_equal(cov.projector(), np.diag([1.0, 0.0, 1.0]))
