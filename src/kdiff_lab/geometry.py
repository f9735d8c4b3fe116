"""Synthetic data generation on linear manifolds and colored Gaussians.

Every data source is Gaussian with second moment F @ F.T for a covariance
factor F, and one sampler serves them all.  Manifold data lives on a
d-dimensional linear subspace of R^D: F is its D x d orthonormal basis, so
intrinsic latents are whitened (unit second moment).  Colored data has a
D x D factor built from a spectrum.  Ambient noise is standard normal.  All
samplers take an explicit generator handle, so independent handles may run
in parallel; the sources themselves are immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import Spectrum
from .errors import DimError


@dataclass(frozen=True)
class ManifoldBasis:
    """Orthonormal basis (D x d, orthonormal columns) of the data subspace."""

    matrix: np.ndarray

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def intrinsic_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def factor(self) -> np.ndarray:
        """Covariance factor: the basis itself, whose outer product is the projector."""
        return self.matrix

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.matrix @ self.matrix.T


def random_orthonormal_basis(ambient: int, intrinsic: int, rng: np.random.Generator) -> ManifoldBasis:
    """Random orthonormal basis via QR of a Gaussian matrix.

    The sign convention (positive R diagonal) makes the result a
    deterministic function of the generator state.
    """
    if not 1 <= intrinsic <= ambient:
        raise DimError(f"need 1 <= d <= D, got d={intrinsic}, D={ambient}")
    g = rng.standard_normal((ambient, intrinsic))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return ManifoldBasis(q * signs)


def sample_latents(source, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the standard-normal latents of data rows: one per column of the factor."""
    return rng.standard_normal((batch, source.factor.shape[1]))


def sample_data(source, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Draw Gaussian data rows with second moment ``source.factor @ source.factor.T``.

    The source is a ``ManifoldBasis`` (whitened intrinsic latents embedded in
    ambient space) or a ``ColoredCovariance``; either way the rows are
    ``sample_latents`` embedded by the factor.
    """
    return sample_latents(source, batch, rng) @ source.factor.T


def sample_noise(dim: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian white noise rows."""
    return rng.standard_normal((batch, dim))


@dataclass(frozen=True)
class ColoredCovariance:
    """Data second moment Sigma = factor @ factor.T, with its spectral view."""

    factor: np.ndarray
    spectrum: Spectrum

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def covariance(self) -> np.ndarray:
        return self.factor @ self.factor.T

    @classmethod
    def from_spectrum(cls, eigenvalues, eigenvectors=None) -> "ColoredCovariance":
        """Build from eigenvalues, defaulting to the standard basis."""
        spec = Spectrum(np.asarray(eigenvalues, dtype=np.float64), eigenvectors)
        q = spec.eigenvectors if spec.eigenvectors is not None else np.eye(spec.dim)
        factor = q * np.sqrt(spec.eigenvalues)
        if spec.eigenvectors is None:
            spec = Spectrum(spec.eigenvalues, q)
        return cls(factor, spec)

    @classmethod
    def from_covariance(cls, cov) -> "ColoredCovariance":
        """Build from a symmetric positive semi-definite matrix."""
        cov = np.asarray(cov, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise DimError(f"covariance must be square, got shape {cov.shape}")
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValueError("covariance must be symmetric")
        lam, q = np.linalg.eigh(cov)
        if np.min(lam) < -1e-10:
            raise ValueError(f"covariance not positive semi-definite (min eigenvalue {np.min(lam):.2e})")
        lam = np.clip(lam, 0.0, None)
        return cls(q * np.sqrt(lam), Spectrum(lam, q))
