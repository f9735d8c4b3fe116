"""Closed-form and quadrature evaluation of equilibrium weights and optimal losses.

The central objects are time integrals against the effective measure
(sampling density times kappa^2).  With those moments in hand, the optimal
single-linear-layer weight and the loss at that optimum decouple over the
eigenmodes of the data second moment: a mode with eigenvalue lam has its own
coefficient and loss, each a function of lam and the moments alone
(``colored_mode_coefficients``, ``colored_mode_losses``).  ``optimal_loss``
sums them by eigenspace: each distinct positive eigenvalue's mode loss times
its multiplicity is the support's part (parallel), and the zero eigenvalues'
count times the zero-mode loss the null space's part (perpendicular).
Manifold data is the spectrum with d unit and D - d zero eigenvalues
(``Spectrum.manifold``), so its weight is one coefficient on the manifold
projector and one on its complement, and its loss is d times the unit-mode
loss plus D - d times the zero-mode loss.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimError, QuadratureDivergence, SingularEquilibrium
from .schedule import FLOW_MATCHING, TargetSpec, TimeMeasure, gauss_legendre_nodes, kappa

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Largest |quadrature mass - 1| compute_moments accepts.  At 64 nodes logit-normal measures with mu in
# [-2, 2] and sigma in [0.3, 2] read at most 2.2e-4; mu = 0, sigma = 0.06 reads 1.1e-3, mu = -4, sigma = 2 4.5e-3
_MASS_TOLERANCE = 1e-3


@dataclass(frozen=True)
class DimensionPair:
    """Ambient dimension D and intrinsic dimension d of the data manifold."""

    ambient: int
    intrinsic: int

    def __post_init__(self):
        if self.intrinsic < 1:
            raise ValueError(f"intrinsic dimension must be >= 1, got {self.intrinsic}")
        if self.ambient < self.intrinsic:
            raise ValueError(
                f"ambient dimension {self.ambient} smaller than intrinsic {self.intrinsic}"
            )


@dataclass(frozen=True)
class MomentSet:
    """Integrals of the schedule coefficients against the effective measure W = density * kappa^2.

    The first five are the target-free integrals of W, W alpha, W sigma,
    W alpha^2 and W sigma^2, with alpha = t and sigma = 1 - t; ``one`` is the
    total effective mass.  The target's coefficients phi and psi are
    constants, so the last four are those integrals times them:
    ``phi_alpha = phi alpha``, ``psi_sigma = psi sigma``, ``phi_sq = phi^2 one``
    and ``psi_sq = psi^2 one``.
    """

    one: float
    alpha: float
    sigma: float
    alpha_sq: float
    sigma_sq: float
    phi_alpha: float
    psi_sigma: float
    phi_sq: float
    psi_sq: float


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of the data second moment."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        object.__setattr__(self, "eigenvalues", lam)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d array")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam < 0.0):
            raise ValueError("eigenvalues must be non-negative")

    @classmethod
    def manifold(cls, ambient: int, intrinsic: int) -> "Spectrum":
        """The spectrum of manifold data: d unit and D - d zero eigenvalues."""
        if not 1 <= intrinsic <= ambient:
            raise DimError(f"need 1 <= d <= D, got d={intrinsic}, D={ambient}")
        return cls(np.repeat([1.0, 0.0], [intrinsic, ambient - intrinsic]))

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))


@dataclass(frozen=True)
class OptimalLoss:
    """Loss at the equilibrium weight, split into the data's support and null space."""

    total: float
    parallel: float
    perpendicular: float


def compute_moments(
    process: str,
    target: TargetSpec,
    loss: TargetSpec | None,
    measure: TimeMeasure,
    quad_nodes: int = 64,
    clamp_floor: float | None = None,
) -> MomentSet:
    """Integrate the moment set under flow matching (alpha = t, sigma = 1 - t) by Gauss-Legendre
    quadrature.  ``process`` must be ``FLOW_MATCHING``, the one forward process.  ``loss`` is
    ``U_LOSS``, the target's own MSE, or the target whose MSE is trained, weighted by
    ``kappa(target, loss, t)^2``.

    Five weighted sums over the nodes give the target-free moments, and the target's constants
    multiply them into the other four (``MomentSet``); ``sigma`` and ``sigma_sq`` are summed over
    1 - t, since ``one - alpha`` would cancel.  The first moment in field order that is not finite
    raises QuadratureDivergence.

    64 nodes are exact for the polynomial integrands of the uniform case and
    spectrally accurate for smooth non-polynomial measures such as the
    logit-normal; raise quad_nodes for tighter tolerances there.  Where the
    nodes' integral of the density alone misses 1 by more than 1e-3 they miss
    a peak of it, and QuadratureDivergence is raised.

    The weight (density times kappa^2) must be integrable on the interval:
    a loss/target pairing whose conversion denominator vanishes at an
    endpoint (say, the noise-prediction target under the velocity loss)
    diverges there, and nodes-are-interior quadrature cannot flag that.
    """
    if process != FLOW_MATCHING:
        raise ValueError(f"the only forward process is {FLOW_MATCHING!r}, got {process!r}")
    t, wq = gauss_legendre_nodes(measure.interval, quad_nodes)
    kap = np.asarray(kappa(target, loss, t, clamp_floor), dtype=np.float64)
    mass = wq * measure.density(t)
    weight = mass * kap * kap
    s = 1.0 - t
    one, alpha, sigma, alpha_sq, sigma_sq = (float(np.sum(weight * f)) for f in (1.0, t, s, t * t, s * s))
    phi, psi = target.phi, target.psi
    moments = MomentSet(one, alpha, sigma, alpha_sq, sigma_sq,
                        phi * alpha, psi * sigma, phi * phi * one, psi * psi * one)
    for name, value in vars(moments).items():
        if not math.isfinite(value):
            raise QuadratureDivergence(f"non-finite integrand for moment {name!r}")
    total = float(np.sum(mass))
    if not abs(total - 1.0) <= _MASS_TOLERANCE:
        raise QuadratureDivergence(f"the time measure's quadrature mass is {total:.6g}, not 1 within "
                                   f"{_MASS_TOLERANCE:g}, at quad_nodes={quad_nodes}")
    return moments


def optimal_loss(moments: MomentSet, spectrum: Spectrum) -> OptimalLoss:
    """Loss at the equilibrium weight, split into parallel and perpendicular parts.

    The parallel part sums each distinct positive eigenvalue's mode loss
    times its multiplicity; the perpendicular part is the number of zero
    eigenvalues times the zero-mode loss.  The result does not depend on the
    order of the eigenvalues, and on ``Spectrum.manifold(D, d)`` it is d times
    the unit-mode loss plus D - d times the zero-mode loss.  Both parts are
    non-negative (Cauchy-Schwarz) up to roundoff.
    """
    lam = spectrum.eigenvalues
    counts = Counter(lam[lam > 0.0].tolist())  # np.unique would import numpy.ma
    values = sorted(counts)
    *losses, zero = colored_mode_losses([*values, 0.0], moments)
    parallel = float(np.sum(np.multiply([counts[value] for value in values], losses)))
    perpendicular = (spectrum.dim - sum(counts.values())) * float(zero)
    return OptimalLoss(parallel + perpendicular, parallel, perpendicular)


def optimal_loss_poly(k, dims: DimensionPair):
    """Closed-form equilibrium loss for the k-target under flow matching,
    uniform time sampling and unit loss weighting:

        (1/16) * (2 (D + d) k^2 - 4 D k + 2 D + 3 d)
    """
    kk = np.asarray(k, dtype=np.float64)
    dd, d = dims.ambient, dims.intrinsic
    out = (2.0 * (dd + d) * kk * kk - 4.0 * dd * kk + (2.0 * dd + 3.0 * d)) / 16.0
    if np.ndim(k) == 0:
        return float(out)
    return out


def argmin_k(loss_fn, tol: float = 1e-8, bracket: tuple[float, float] = (0.0, 1.0)) -> float:
    """Golden-section minimiser of a unimodal function on the bracket, [0, 1] by default.

    On exact ties both ends shrink, so a constant function converges to the
    bracket's midpoint.  The bracket shrinks to ``tol``, but the minimiser is
    reproducible only to about sqrt(eps) of the function's scale: near a
    smooth minimum the function is flat to roundoff over that width, so its
    comparisons there are decided by last bits.  A change in the last bits of
    the function can move the result by more than ``tol``; one such change of
    the moments moved ``theory``'s k_star by 3.3e-8.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    a, b = bracket
    if not a < b:
        raise ValueError(f"bracket must satisfy lo < hi, got {bracket}")
    while b - a > tol:
        span = b - a
        x1 = b - _GOLDEN * span
        x2 = a + _GOLDEN * span
        f1, f2 = loss_fn(x1), loss_fn(x2)
        if f1 < f2:
            b = x2
        elif f1 > f2:
            a = x1
        else:
            a, b = x1, x2
    return 0.5 * (a + b)


def _mode_denominators(eigenvalues, moments: MomentSet) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues as an array and the per-mode denominators lam * alpha_sq + sigma_sq.

    Every per-mode formula squares a term no larger than (lam + 1) times the
    largest moment, so a spectrum whose largest eigenvalue makes that square
    overflow is rejected here rather than given infinite or zero results.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    den = lam * moments.alpha_sq + moments.sigma_sq
    if np.any(den <= 0.0):
        raise SingularEquilibrium(
            f"per-mode denominator not positive (min {np.min(den):.3e})"
        )
    _check_mode_terms(lam, max(abs(v) for v in vars(moments).values()))
    return lam, den


def _check_mode_terms(eigenvalues: np.ndarray, moment: float) -> None:
    """Raise SingularEquilibrium if (largest eigenvalue + 1) * moment overflows when squared."""
    top = float(np.max(eigenvalues, initial=0.0))
    bound = (top + 1.0) * moment
    if not math.isfinite(bound * bound):
        raise SingularEquilibrium(
            f"per-mode terms overflow: largest eigenvalue {top:.3e}, largest moment {moment:.3e}"
        )


def colored_mode_coefficients(eigenvalues, moments: MomentSet) -> np.ndarray:
    """Per-eigenmode equilibrium coefficients for colored data.

    Mode i with eigenvalue lam: (lam * phi_alpha + psi_sigma) / (lam * alpha_sq + sigma_sq).
    A unit eigenvalue gives c_par and a zero eigenvalue c_perp.
    """
    lam, den = _mode_denominators(eigenvalues, moments)
    return (lam * moments.phi_alpha + moments.psi_sigma) / den


def colored_mode_losses(eigenvalues, moments: MomentSet) -> np.ndarray:
    """Per-eigenmode equilibrium loss contributions for colored data."""
    lam, den = _mode_denominators(eigenvalues, moments)
    num = lam * moments.phi_alpha + moments.psi_sigma
    return 0.5 * (lam * moments.phi_sq + moments.psi_sq - num * num / den)


def u_loss_optimal_k(eigenvalues, moments: MomentSet) -> float:
    """Exact minimiser over k in [0, 1] of the u-loss equilibrium loss, summed over modes.

    kappa is 1, so the moments of any k-target serve, and with b = lam * alpha + sigma
    and den = lam * alpha_sq + sigma_sq mode lam's loss is the convex quadratic
    0.5 * ((1 + lam) one k^2 - 2 one k + one - (b k - sigma)^2 / den).  The vertex of
    the sum is clipped to [0, 1]; ``colored_optimal_k`` is the uniform-time case.
    """
    lam, den = _mode_denominators(eigenvalues, moments)
    b = lam * moments.alpha + moments.sigma
    slope = np.sum(moments.one - moments.sigma * b / den)
    curvature = np.sum((1.0 + lam) * moments.one - b * b / den)
    return float(np.clip(slope / curvature, 0.0, 1.0))


def colored_optimal_k(spectrum: Spectrum) -> float:
    """Minimiser of the colored-data loss over k: D / (D + trace).

    Holds for flow matching with uniform time sampling and unit loss
    weighting; a binary 0/1 spectrum reduces it to D / (D + d), and an
    all-zero spectrum gives pure data prediction, k = 1.  There the largest
    u-loss moment is ``one`` = 1, so a spectrum whose per-mode terms overflow
    raises SingularEquilibrium here as in ``u_loss_optimal_k``.
    """
    _check_mode_terms(spectrum.eigenvalues, 1.0)
    return spectrum.dim / (spectrum.dim + spectrum.trace)
