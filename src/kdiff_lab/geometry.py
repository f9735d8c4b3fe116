"""Synthetic Gaussian data: one source type for linear manifolds and general spectra.

A ``GaussianSource`` is zero-mean Gaussian data with second moment
Sigma = Q diag(lam) Q^T, held as its support: r orthonormal eigenvectors and
their positive eigenvalues; every other direction has eigenvalue 0.  Manifold
data on a d-dimensional linear subspace of R^D is the case of d unit
eigenvalues, so its covariance factor F = Q sqrt(lam) is the orthonormal basis
itself and the intrinsic latents are whitened.  A spectrum given as
eigenvalues lies along the standard basis.  One sampler serves every source,
embedding r standard-normal latents by F.  Ambient noise is standard normal.
All samplers take an explicit generator handle, so independent handles may
run in parallel; the sources themselves are immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analytic import Spectrum
from .errors import DimError


@dataclass(frozen=True)
class GaussianSource:
    """Zero-mean Gaussian data with second moment Sigma = Q diag(lam) Q^T.

    ``eigenvectors`` Q is D x r with orthonormal columns and ``eigenvalues``
    lam holds r positive values; directions outside the span of Q have
    eigenvalue 0.  The columns given with a zero eigenvalue are dropped, so a
    source holds only its support.  Manifold data has d unit eigenvalues.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # no eigenvectors at all is the zero source, an all-zero spectrum
        lam = Spectrum(self.eigenvalues).eigenvalues if np.size(self.eigenvalues) else np.zeros(0)
        q = np.asarray(self.eigenvectors, dtype=np.float64)
        if q.ndim != 2 or not lam.size == q.shape[1] <= q.shape[0]:
            raise DimError(f"need D x {lam.size} eigenvectors with D >= {lam.size}, got shape {q.shape}")
        # a zero eigenvalue's column adds nothing to Sigma, so only the support is kept
        q, lam = q[:, lam > 0.0], lam[lam > 0.0]
        # the copy makes this a general product: for q.T @ q numpy calls BLAS's
        # symmetric kernel, which raised the trainer's peak RSS by about 0.2 MB
        ortho_err = np.max(np.abs(q.T.copy() @ q - np.eye(lam.size)), initial=0.0)
        if ortho_err > 1e-10:
            raise ValueError(f"eigenvectors not orthonormal (max |Q^T Q - I| = {ortho_err:.2e})")
        object.__setattr__(self, "eigenvectors", q)
        object.__setattr__(self, "eigenvalues", lam)
        # Sigma = factor @ factor.T; unit eigenvalues leave the basis as it is, bit for bit
        object.__setattr__(self, "factor", q * np.sqrt(lam))

    @property
    def ambient_dim(self) -> int:
        return self.eigenvectors.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the support, Q Q^T."""
        return self.eigenvectors @ self.eigenvectors.T

    @classmethod
    def from_spectrum(cls, eigenvalues) -> "GaussianSource":
        """The source with the given eigenvalues along the standard basis, a column per positive one."""
        lam = Spectrum(eigenvalues).eigenvalues
        return cls(np.eye(lam.size), lam)


def random_orthonormal_basis(ambient: int, intrinsic: int, rng: np.random.Generator) -> GaussianSource:
    """Manifold data on a random d-dimensional subspace: d unit eigenvalues on an
    orthonormal basis from the QR of a Gaussian matrix.

    The sign convention (positive R diagonal) makes the result a
    deterministic function of the generator state.
    """
    ones = Spectrum.manifold(ambient, intrinsic).eigenvalues[:intrinsic]  # DimError unless 1 <= d <= D
    g = rng.standard_normal((ambient, intrinsic))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return GaussianSource(q * signs, ones)


def sample_data(source: GaussianSource, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Draw Gaussian data rows with second moment ``source.factor @ source.factor.T``:
    standard-normal latents, one per column of the factor, embedded by the factor."""
    return rng.standard_normal((batch, source.factor.shape[1])) @ source.factor.T


def sample_noise(dim: int, batch: int, rng: np.random.Generator) -> np.ndarray:
    """Standard Gaussian white noise rows."""
    return rng.standard_normal((batch, dim))
