"""Single-layer linear diffusion model: exact expected dynamics and Monte Carlo oracle.

The model predicts the target as ``u_hat = W z`` with a time-independent
D x D weight.  Its training loss is a positive-semidefinite quadratic in W
whose gradient-flow dynamics decouple into a mode parallel to the data
manifold (data recovery) and one perpendicular to it (noise elimination).
The exact expected gradient is affine in W, so it can be assembled from
precomputed moments with no per-step quadrature, and its explicit Euler
recursion has a closed form: each mode's offset from the equilibrium weight
shrinks by a fixed factor per step.  Exact-mode flow therefore decomposes the
initial weight once and evaluates every recorded step from scalar powers of
the two factors; stochastic mode steps through fresh sample batches.

``monte_carlo_loss`` estimates the same training loss by simulation and is
the independent oracle for the closed-form equilibrium loss.  It evaluates
its draws in blocks of 1024 rows, so its memory does not grow with the
chunk size times D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .analytic import MomentSet, compute_moments, optimal_weight_coeffs
from .errors import DimError, Divergence
from .geometry import ManifoldBasis, sample_data, sample_latents, sample_noise
from .schedule import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    LossTargetSpec,
    ProcessSpec,
    TargetSpec,
    TimeMeasure,
    k_target,
    kappa,
    sample_t,
)


@dataclass(frozen=True)
class ModeDecomposition:
    """Weight split into its manifold-parallel and perpendicular components."""

    parallel: np.ndarray
    perpendicular: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.parallel + self.perpendicular


@dataclass(frozen=True)
class FlowConfig:
    """Gradient-flow integration settings.

    mode "exact" uses the expected gradient assembled from moments;
    "stochastic" draws a fresh batch per step.  step_size is the learning
    rate of the explicit Euler discretisation.
    """

    step_size: float
    steps: int
    mode: str = "exact"
    batch: int = 256

    def __post_init__(self):
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.mode not in ("exact", "stochastic"):
            raise ValueError(f"unknown gradient mode {self.mode!r}")


@dataclass(frozen=True)
class FlowRecord:
    """Trajectory snapshot: loss and distances to equilibrium, weights on demand.

    The weight components are built when read, so a trajectory holds no D x D
    matrix per row in exact mode and one, the unsplit weight, in stochastic mode.
    """

    step: int
    loss: float
    dist_par: float
    dist_perp: float
    _modes: Callable[[], ModeDecomposition] = field(repr=False, compare=False)

    @property
    def weight_par(self) -> np.ndarray:
        return self._modes().parallel

    @property
    def weight_perp(self) -> np.ndarray:
        return self._modes().perpendicular

    @property
    def weight(self) -> np.ndarray:
        return self._modes().total


def decompose(weight: np.ndarray, basis: ManifoldBasis) -> ModeDecomposition:
    """Split a weight into components acting on the manifold and its complement."""
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != (basis.ambient_dim, basis.ambient_dim):
        raise DimError(
            f"weight shape {weight.shape} does not match ambient dimension {basis.ambient_dim}"
        )
    par = weight @ basis.projector()
    return ModeDecomposition(par, weight - par)


def _equilibrium_modes(basis: ManifoldBasis, moments: MomentSet) -> ModeDecomposition:
    c_par, c_perp = optimal_weight_coeffs(moments)
    proj = basis.projector()
    return ModeDecomposition(c_par * proj, c_perp * (np.eye(basis.ambient_dim) - proj))


def equilibrium_weight(basis: ManifoldBasis, moments: MomentSet) -> np.ndarray:
    """Global minimiser of the quadratic training loss (the flow's fixed point)."""
    return _equilibrium_modes(basis, moments).total


def exact_gradient(weight: np.ndarray, basis: ManifoldBasis, moments: MomentSet) -> np.ndarray:
    """Expected descent direction at the given weight.

    A gradient-flow step is ``weight + step_size * exact_gradient(...)``;
    the returned matrix vanishes exactly at the equilibrium weight.
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != (basis.ambient_dim, basis.ambient_dim):
        raise DimError(
            f"weight shape {weight.shape} does not match ambient dimension {basis.ambient_dim}"
        )
    proj = basis.projector()
    eye = np.eye(basis.ambient_dim)
    return -(
        moments.alpha_sq * weight @ proj
        + moments.sigma_sq * weight
        - moments.phi_alpha * proj
        - moments.psi_sigma * eye
    )


def stochastic_gradient(
    weight: np.ndarray,
    x: np.ndarray,
    noise: np.ndarray,
    t: np.ndarray,
    process: ProcessSpec = FLOW_MATCHING,
    target: TargetSpec | float = 1.0,
    loss: LossTargetSpec = U_LOSS,
) -> np.ndarray:
    """Batch estimate of the descent direction from samples (x, noise, t).

    Unbiased for ``exact_gradient`` when t is drawn from the measure the
    moments were computed with.
    """
    if isinstance(target, (int, float)):
        target = k_target(float(target))
    weight = np.asarray(weight, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    a = np.asarray(process.alpha(t), dtype=np.float64)[:, None]
    s = np.asarray(process.sigma(t), dtype=np.float64)[:, None]
    p = np.asarray(target.phi(t), dtype=np.float64)[:, None]
    q = np.asarray(target.psi(t), dtype=np.float64)[:, None]
    kap = np.asarray(kappa(process, target, loss, t), dtype=np.float64)
    z = a * x + s * noise
    u = p * x + q * noise
    resid = (kap * kap)[:, None] * (z @ weight.T - u)
    return -(resid.T @ z) / len(t)


def quadratic_loss(weight: np.ndarray, basis: ManifoldBasis, moments: MomentSet) -> float:
    """Exact training loss of an arbitrary weight (quadratic in the weight)."""
    weight = np.asarray(weight, dtype=np.float64)
    proj = basis.projector()
    wp = weight @ proj
    d = basis.intrinsic_dim
    ambient = basis.ambient_dim
    return 0.5 * (
        moments.alpha_sq * float(np.sum(wp * weight))
        + moments.sigma_sq * float(np.sum(weight * weight))
        - 2.0 * (moments.phi_alpha * float(np.trace(wp)) + moments.psi_sigma * float(np.trace(weight)))
        + moments.phi_sq * d
        + moments.psi_sq * ambient
    )


def stability_bound(moments: MomentSet) -> float:
    """Largest stable explicit-Euler step for the exact dynamics."""
    return 2.0 / (moments.alpha_sq + moments.sigma_sq)


def _log_steps(total: int) -> set[int]:
    # every step up to 1e3, then logarithmically spaced
    if total <= 1000:
        return set(range(total + 1))
    pts = np.unique(np.geomspace(1, total, 1000).astype(int))
    return {0, total} | set(int(p) for p in pts)


def run_gradient_flow(
    weight0: np.ndarray,
    basis: ManifoldBasis,
    config: FlowConfig,
    process: ProcessSpec = FLOW_MATCHING,
    target: TargetSpec | float = 1.0,
    loss: LossTargetSpec = U_LOSS,
    measure: TimeMeasure = UNIFORM_MEASURE,
    rng: np.random.Generator | None = None,
) -> list[FlowRecord]:
    """Integrate the training dynamics with explicit Euler steps.

    In exact mode the Euler recursion is solved in closed form.  Each mode's
    offset from the equilibrium weight W* shrinks by a fixed factor per step,
    a = 1 - step*(alpha_sq + sigma_sq) on the manifold and
    b = 1 - step*sigma_sq off it, so at step i the weight is
    W* + a**i * (W0_par - W*_par) + b**i * (W0_perp - W*_perp), the distances
    are |a|**i and |b|**i times the initial ones, and the loss is
    L* + (alpha_sq + sigma_sq) * dist_par**2 / 2 + sigma_sq * dist_perp**2 / 2.
    ``weight0`` is decomposed once and every recorded row costs O(1).  The
    perpendicular trajectory depends only on sigma_sq, psi_sigma and W0, so
    it is bit-identical across runs that differ only in the data coefficient.

    Stochastic mode takes one Euler step per fresh batch of samples.  Each
    recorded row keeps only its unsplit weight and splits it when read.
    In either mode a ``step_size`` at or above ``stability_bound`` warns
    before any step, since the mean dynamics then diverge.

    Raises:
        Divergence: in exact mode, before any step, if a mode that starts
            off its equilibrium has a factor of magnitude above 1; in
            stochastic mode, at the first recorded row that is not finite.
        DimError: if ``weight0`` is not D x D.
        ValueError: if stochastic mode is given no rng.
    """
    if isinstance(target, (int, float)):
        target = k_target(float(target))
    moments = compute_moments(process, target, loss, measure)
    if config.step_size >= stability_bound(moments):
        warnings.warn(
            f"step_size {config.step_size} at or above stability bound "
            f"{stability_bound(moments):.6g}; {config.mode} dynamics will diverge",
            stacklevel=2,
        )
    if config.mode == "stochastic" and rng is None:
        raise ValueError("stochastic mode needs an rng")

    equilibrium = _equilibrium_modes(basis, moments)
    # a stochastic row keeps this array, so a caller's later edit must not reach it
    weight = np.array(weight0, dtype=np.float64)
    modes = decompose(weight, basis)
    if config.mode == "exact":
        return _closed_form_flow(modes, equilibrium, basis, moments, config)

    def record(step: int, weight: np.ndarray, modes: ModeDecomposition) -> FlowRecord:
        rec = FlowRecord(
            step=step,
            loss=quadratic_loss(modes.total, basis, moments),
            dist_par=float(np.linalg.norm(modes.parallel - equilibrium.parallel)),
            dist_perp=float(np.linalg.norm(modes.perpendicular - equilibrium.perpendicular)),
            _modes=partial(decompose, weight, basis),
        )
        if not all(map(math.isfinite, (rec.loss, rec.dist_par, rec.dist_perp))):
            raise Divergence(f"stochastic flow is not finite at step {step} (loss {rec.loss:.6g})")
        return rec

    keep = _log_steps(config.steps)
    trajectory = [record(0, weight, modes)]
    # an overflow surfaces as the Divergence raised by record
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, config.steps + 1):
            x = sample_data(basis, config.batch, rng)
            noise = sample_noise(basis.ambient_dim, config.batch, rng)
            t = sample_t(measure, rng, size=config.batch)
            total = modes.total
            weight = total + config.step_size * stochastic_gradient(total, x, noise, t, process, target, loss)
            modes = decompose(weight, basis)
            if i in keep:
                trajectory.append(record(i, weight, modes))
    return trajectory


def _shifted(
    equilibrium: ModeDecomposition, offset: ModeDecomposition, factor_par: float, factor_perp: float
) -> ModeDecomposition:
    return ModeDecomposition(
        equilibrium.parallel + factor_par * offset.parallel,
        equilibrium.perpendicular + factor_perp * offset.perpendicular,
    )


def _closed_form_flow(
    initial: ModeDecomposition,
    equilibrium: ModeDecomposition,
    basis: ManifoldBasis,
    moments: MomentSet,
    config: FlowConfig,
) -> list[FlowRecord]:
    offset = ModeDecomposition(
        initial.parallel - equilibrium.parallel, initial.perpendicular - equilibrium.perpendicular
    )
    norm_par = float(np.linalg.norm(offset.parallel))
    norm_perp = float(np.linalg.norm(offset.perpendicular))
    curv_par = moments.alpha_sq + moments.sigma_sq
    curv_perp = moments.sigma_sq
    # a mode that starts at its equilibrium stays there, whatever its factor
    decay_par = 1.0 - config.step_size * curv_par if norm_par > 0.0 else 0.0
    decay_perp = 1.0 - config.step_size * curv_perp if norm_perp > 0.0 else 0.0
    for name, decay in (("parallel", decay_par), ("perpendicular", decay_perp)):
        if abs(decay) > 1.0:
            raise Divergence(
                f"{name} mode grows by a factor {abs(decay):.6g} per step "
                f"(step_size {config.step_size})"
            )
    loss_star = quadratic_loss(equilibrium.total, basis, moments)
    trajectory = []
    for i in sorted(_log_steps(config.steps)):
        a, b = decay_par**i, decay_perp**i
        dist_par, dist_perp = abs(a) * norm_par, abs(b) * norm_perp
        trajectory.append(
            FlowRecord(
                step=i,
                loss=loss_star + 0.5 * (curv_par * dist_par**2 + curv_perp * dist_perp**2),
                dist_par=dist_par,
                dist_perp=dist_perp,
                _modes=partial(_shifted, equilibrium, offset, a, b),
            )
        )
    return trajectory


# Rows per Monte Carlo block.  The remainder of a chunk joins its last block,
# so no block is small: BLAS switches kernels for few rows, which changes the
# last bits of a row's product.
_BLOCK_ROWS = 1024


def monte_carlo_loss(
    weight: np.ndarray,
    basis: ManifoldBasis,
    target: TargetSpec | float,
    n_samples: int,
    rng: np.random.Generator,
    process: ProcessSpec = FLOW_MATCHING,
    loss: LossTargetSpec = U_LOSS,
    measure: TimeMeasure = UNIFORM_MEASURE,
    clamp_floor: float | None = None,
    chunk: int = 1 << 15,
) -> tuple[float, float]:
    """Monte Carlo estimate of the training loss with its standard error.

    Samples always come as antithetic noise pairs (n, -n) sharing data and
    time, which lowers variance without biasing the estimate; each pair mean
    counts as one observation for the standard error, and an odd
    ``n_samples`` uses ``n_samples - 1`` draws.  With the data part
    A = alpha x W^T - phi x and the noise part N = sigma n W^T - psi n, the
    pair's residuals are A + N and A - N, so its mean is
    kappa^2 (|A|^2 + |N|^2) / 2 and neither residual is formed.

    Observations are drawn ``chunk`` at a time, in the order t, data latents,
    noise.  Each chunk is then evaluated in blocks of 1024 rows, the rows
    left after the last full block joining that block (a chunk of fewer than
    2048 rows is one block): each block embeds its latents, draws its noise,
    forms the two residual parts and writes its observations.  Besides
    8 bytes per observation, the working set is a few 1024 x D blocks and
    the chunk's latents and time coefficients, so it does not grow with
    chunk x D: 5.5 MB traced at D = 32, d = 4 and 2^18 samples, where
    evaluating each chunk in one piece took 43.8 MB.  Consecutive noise
    draws continue one stream and no block is small enough for BLAS to
    switch kernels, so the result is bit-identical to that chunk-wide
    evaluation for a given generator state and BLAS thread count.

    Raises:
        ValueError: if there are fewer than 2 pairs, that is ``n_samples``
            below 4, or if ``chunk`` is below 1.
    """
    if isinstance(target, (int, float)):
        target = k_target(float(target))
    n_pairs = n_samples // 2
    if n_pairs < 2:
        raise ValueError(
            f"need at least 4 samples with antithetic pairs for a standard error, got {n_samples}"
        )
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    values = _loss_observations(
        np.asarray(weight, dtype=np.float64), basis, target, n_pairs, rng,
        process, loss, measure, clamp_floor, chunk,
    )
    estimate = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(n_pairs))
    return estimate, std_error


def _loss_observations(
    weight: np.ndarray,
    basis: ManifoldBasis,
    target: TargetSpec,
    n_pairs: int,
    rng: np.random.Generator,
    process: ProcessSpec,
    loss: LossTargetSpec,
    measure: TimeMeasure,
    clamp_floor: float | None,
    chunk: int,
) -> np.ndarray:
    """The observations ``monte_carlo_loss`` averages, one per antithetic pair."""
    embed = basis.factor.T
    values = np.empty(n_pairs)
    done = 0
    while done < n_pairs:
        m = min(chunk, n_pairs - done)
        t = sample_t(measure, rng, size=m)
        latents = sample_latents(basis, m, rng)
        a = np.asarray(process.alpha(t), dtype=np.float64)[:, None]
        s = np.asarray(process.sigma(t), dtype=np.float64)[:, None]
        p = np.asarray(target.phi(t), dtype=np.float64)[:, None]
        q = np.asarray(target.psi(t), dtype=np.float64)[:, None]
        kap2 = np.asarray(kappa(process, target, loss, t, clamp_floor), dtype=np.float64) ** 2
        edges = [*range(0, max(m // _BLOCK_ROWS, 1) * _BLOCK_ROWS, _BLOCK_ROWS), m]
        for lo, hi in zip(edges, edges[1:]):
            block = slice(lo, hi)
            x = latents[block] @ embed
            noise = sample_noise(basis.ambient_dim, hi - lo, rng)
            data_part = x @ weight.T
            data_part *= a[block]
            data_part -= p[block] * x
            noise_part = noise @ weight.T
            noise_part *= s[block]
            noise_part -= q[block] * noise
            sq_norm = np.einsum("ij,ij->i", data_part, data_part) + np.einsum(
                "ij,ij->i", noise_part, noise_part
            )
            values[done + lo : done + hi] = 0.5 * kap2[block] * sq_norm
        done += m
    return values
