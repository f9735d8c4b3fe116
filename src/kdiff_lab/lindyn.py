"""Single-layer linear diffusion model: exact expected dynamics and Monte Carlo oracle.

The model predicts the target as ``u_hat = W z`` with a time-independent
D x D weight, on data from a ``GaussianSource`` with second moment Sigma.
Its training loss is a positive-semidefinite quadratic in W whose
gradient-flow dynamics decouple over the eigenvectors of Sigma: each
eigenvector v_j the source holds, all of positive eigenvalue (data
recovery), and the null space (noise elimination).  Manifold data has d unit
eigenvalues, so the two modes are the manifold-parallel and perpendicular
parts of W.  The exact expected gradient is affine in W, and its explicit
Euler recursion has a closed form: the offset of each column W v_j from the
equilibrium, and of the null space's part, shrinks by a fixed factor per
step.  Exact-mode flow therefore measures those offsets once and evaluates
every recorded step from scalar powers of the factors; stochastic mode steps
the weight itself through fresh sample batches.  A trajectory row holds only
numbers, its step, loss and two distances; ``flow_weight`` builds the weight
of an exact-mode row from W0.

``monte_carlo_loss`` estimates the same training loss by simulation and is
the independent oracle for the closed-form equilibrium loss.  It draws and
evaluates 1024 rows at a time, so its memory grows with D but not with the
number of samples times D.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .analytic import MomentSet, Spectrum, colored_mode_coefficients, compute_moments, optimal_loss
from .errors import DimError, Divergence
from .geometry import GaussianSource, sample_data, sample_noise
from .schedule import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    TargetSpec,
    TimeMeasure,
    k_target,
    kappa,
    sample_t,
)


@dataclass(frozen=True)
class ModeDecomposition:
    """A weight (``total``) split into its parts on the data's support (parallel) and
    null space (perpendicular)."""

    parallel: np.ndarray
    perpendicular: np.ndarray
    total: np.ndarray


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
        if not 0.0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be positive and finite, got {self.step_size}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.mode not in ("exact", "stochastic"):
            raise ValueError(f"unknown gradient mode {self.mode!r}")


@dataclass(frozen=True)
class FlowRecord:
    """Trajectory row: the step, the loss and the distances to equilibrium of the weight's
    parts on the data's support and null space.  A row holds these numbers only;
    ``flow_weight`` gives an exact-mode row's weight."""

    step: int
    loss: float
    dist_par: float
    dist_perp: float


def decompose(weight: np.ndarray, source: GaussianSource) -> ModeDecomposition:
    """Split a weight into components acting on the data's support and its null space:
    (W V) V^T, with V the source's eigenvectors, and the rest.  The three arrays,
    ``total`` a copy of the weight, share no memory with the argument."""
    weight = _checked(weight, source)
    vectors = source.eigenvectors
    par = (weight @ vectors) @ vectors.T
    return ModeDecomposition(par, weight - par, weight)


def _square(weight: np.ndarray, dim: int) -> np.ndarray:
    """The weight as a float64 array, not copied if it is one; raises DimError unless it is dim x dim."""
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != (dim, dim):
        raise DimError(f"weight shape {weight.shape} does not match ambient dimension {dim}")
    return weight


def _checked(weight: np.ndarray, source: GaussianSource) -> np.ndarray:
    """A float64 copy of a D x D weight."""
    return _square(np.array(weight, dtype=np.float64), source.ambient_dim)


def _support(source: GaussianSource, moments: MomentSet):
    """The source's D x r eigenvectors V, their eigenvalues, W* V (column j is c(lam_j)
    times V's) and the null space's equilibrium coefficient c(0)."""
    vectors, lam = source.eigenvectors, source.eigenvalues
    coefficients = colored_mode_coefficients(np.append(lam, 0.0), moments)
    return vectors, lam, vectors * coefficients[:-1], float(coefficients[-1])


def _null_offset(weight: np.ndarray, wv: np.ndarray, vectors: np.ndarray, coefficient: float) -> np.ndarray:
    """(W - c I)(I - V V^T), from W and W V, as the one D x D array it returns."""
    offset = (wv - coefficient * vectors) @ vectors.T
    np.subtract(weight, offset, out=offset)
    offset[np.diag_indices_from(offset)] -= coefficient
    return offset


def _flow_modes(weight0: np.ndarray, source: GaussianSource, moments: MomentSet, step_size: float):
    """The support (``_support``), W0 V and, per mode (each column of V, then the null space),
    the initial distance from equilibrium, the rate lam_j alpha_sq + sigma_sq and the factor
    1 - step_size * rate, 0 for a mode at its equilibrium, which stays there whatever its factor.
    Raises ``Divergence`` if a factor has magnitude above 1 or is NaN."""
    support = vectors, lam, star, null = _support(source, moments)
    wv = weight0 @ vectors
    # the null space's offset is squared and summed in place by numpy, not by BLAS's dot
    # product, whose threads would tie the distance's last bits to the thread count
    offset = _null_offset(weight0, wv, vectors, null)
    null_norm = math.sqrt(float(np.sum(np.square(offset, out=offset))))
    # column j of W0 V - W* V is the offset (W0 - c(lam_j) I) v_j
    norms = np.append(np.linalg.norm(wv - star, axis=0), null_norm)
    rates = np.append(lam * moments.alpha_sq + moments.sigma_sq, moments.sigma_sq)
    factors = np.where(norms > 0.0, 1.0 - step_size * rates, 0.0).tolist()
    for index, factor in enumerate(factors):
        if not abs(factor) <= 1.0:
            name = "perpendicular" if index == lam.size else "parallel"
            raise Divergence(f"{name} mode grows by a factor {abs(factor):.6g} per step (step_size {step_size})")
    return support, wv, norms, rates, factors


def _powers(factors: list[float], step: int) -> list[float]:
    # the C library's pow: numpy's array power takes SIMD kernels on some CPUs, whose last bits differ
    return [factor**step for factor in factors]


def flow_weight(
    weight0: np.ndarray, source: GaussianSource, moments: MomentSet, step_size: float, step: int
) -> ModeDecomposition:
    """The exact-mode flow's weight after ``step`` Euler steps of ``step_size`` from ``weight0``,
    split into its support's and null space's parts: W* plus each mode's offset of W0 times
    its factor**step, with the factors, and the ``Divergence`` check, of ``run_gradient_flow``'s
    rows.  Raises ``DimError`` if ``weight0`` is not D x D, and ``ValueError`` if ``step`` is not
    a non-negative integer: a fractional power of a negative factor is complex."""
    if not isinstance(step, (int, np.integer)) or step < 0:
        raise ValueError(f"step must be a non-negative integer, got {step!r}")
    weight0 = _checked(weight0, source)
    (vectors, _, star, null), wv, _, _, factors = _flow_modes(weight0, source, moments, step_size)
    *powers, b = _powers(factors, step)
    parallel = (star + np.multiply(powers, wv - star)) @ vectors.T
    # on the null space the weight is W0 b + c(0) (1 - b) I, restricted to it
    perpendicular = _null_offset(b * weight0, b * wv, vectors, (b - 1.0) * null)
    return ModeDecomposition(parallel, perpendicular, parallel + perpendicular)


def equilibrium_weight(source: GaussianSource, moments: MomentSet) -> np.ndarray:
    """Global minimiser of the quadratic training loss (the flow's fixed point).

    W* = (W* V - c(0) V) V^T + c(0) I: each eigenvector v_j of the source is
    scaled by c(lam_j) and the null space by c(0), with c from
    ``colored_mode_coefficients``.
    """
    vectors, _, star, null = _support(source, moments)
    weight = (star - null * vectors) @ vectors.T
    weight[np.diag_indices_from(weight)] += null
    return weight


def stochastic_gradient(
    weight: np.ndarray,
    x: np.ndarray,
    noise: np.ndarray,
    t: np.ndarray,
    target: TargetSpec | float = 1.0,
    loss: TargetSpec | None = U_LOSS,
) -> np.ndarray:
    """Batch estimate of the descent direction from samples (x, noise, t).

    Unbiased for the expected descent direction, minus the gradient of
    ``quadratic_loss``, when t is drawn from the measure the moments were
    computed with.  Raises ``DimError`` if the weight is not D x D, with D the
    width of ``x``.  Only the shape is checked: a weight that is not finite
    gives a gradient that is not finite, and ``run_gradient_flow``'s stochastic
    mode raises ``Divergence`` for it at its next recorded row.
    """
    if isinstance(target, (int, float)):
        target = k_target(float(target))
    weight = _square(weight, np.shape(x)[-1])
    t = np.asarray(t, dtype=np.float64)
    kap = kappa(target, loss, t)[:, None]
    # flow matching: alpha = t and sigma = 1 - t
    z = t[:, None] * x + (1.0 - t)[:, None] * noise
    u = target.phi * x + target.psi * noise
    resid = (kap * kap) * (z @ weight.T - u)
    return -(resid.T @ z) / len(t)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of a * b over two matrices, by numpy's einsum rather than BLAS's dot product,
    whose threads would tie the sum's last bits to the thread count."""
    return float(np.einsum("ij,ij->", a, b))


def quadratic_loss(weight: np.ndarray, source: GaussianSource, moments: MomentSet) -> float:
    """Exact training loss of an arbitrary weight (quadratic in the weight), read through
    W F with Sigma = F F^T, |W|^2 and tr W: O(D^2 r) work and no D x D array.  Raises
    ``DimError`` if the weight is not D x D."""
    weight = _square(weight, source.ambient_dim)
    wf = weight @ source.factor
    return 0.5 * (
        moments.alpha_sq * _dot(wf, wf)
        + moments.sigma_sq * _dot(weight, weight)
        - 2.0 * (moments.phi_alpha * _dot(source.factor, wf) + moments.psi_sigma * float(np.trace(weight)))
        + moments.phi_sq * float(np.sum(source.eigenvalues))
        + moments.psi_sq * source.ambient_dim
    )


def stability_bound(source: GaussianSource, moments: MomentSet) -> float:
    """Largest stable explicit-Euler step for the exact dynamics: 2 / (lam_max alpha_sq + sigma_sq)."""
    return 2.0 / (float(np.max(source.eigenvalues, initial=0.0)) * moments.alpha_sq + moments.sigma_sq)


def _log_steps(total: int) -> set[int]:
    # every step up to 1e3, then logarithmically spaced
    if total <= 1000:
        return set(range(total + 1))
    pts = np.unique(np.geomspace(1, total, 1000).astype(int))
    return {0, total} | set(int(p) for p in pts)


def run_gradient_flow(
    weight0: np.ndarray,
    source: GaussianSource,
    config: FlowConfig,
    target: TargetSpec | float = 1.0,
    loss: TargetSpec | None = U_LOSS,
    measure: TimeMeasure = UNIFORM_MEASURE,
    rng: np.random.Generator | None = None,
) -> list[FlowRecord]:
    """Integrate the training dynamics with explicit Euler steps.

    In exact mode the Euler recursion is solved in closed form, one
    eigenvector of Sigma at a time.  With V holding the source's
    eigenvectors, the offset (W - c(lam_j) I) v_j of column j from the
    equilibrium weight W* shrinks by a_j = 1 - step*(lam_j*alpha_sq + sigma_sq)
    per step, and the null space's offset (W - c(0) I)(I - V V^T), one D x D
    residual, by 1 - step*sigma_sq.  So a row's distances are |a|**i times
    the r + 1 initial norms, ``dist_par`` is the norm of the r column
    distances (on manifold data, the one unit eigenspace's) and
    ``dist_perp`` is the null space's.  The loss is
    L* + sum (lam_j*alpha_sq + sigma_sq) * dist_j**2 / 2 over the columns and
    the null space, with L* from ``optimal_loss``.  No D x D projector or
    covariance is formed and every recorded row costs O(r).  The
    perpendicular trajectory depends only on sigma_sq, psi_sigma and W0, so
    it is bit-identical across runs that differ only in the data
    coefficient.  ``flow_weight`` gives the weight at a row's step.

    Stochastic mode steps the weight W itself, one Euler step per fresh
    batch of samples; a row takes its loss from W and measures |W V - W* V|
    and |(W - c(0) I)(I - V V^T)|.  Its weights are what ``_stochastic_steps``
    yields for a generator in the state ``rng`` started in.  In either mode a
    ``step_size`` at or above ``stability_bound`` warns before any step,
    since the mean dynamics then diverge.  A row holds numbers, no weight.

    Raises:
        Divergence: in exact mode, before any step, if a mode that starts
            off its equilibrium has a factor of magnitude above 1; in
            stochastic mode, at the first recorded row that is not finite.
        DimError: if ``weight0`` is not D x D.
        ValueError: if stochastic mode is given no rng.
    """
    if isinstance(target, (int, float)):
        target = k_target(float(target))
    moments = compute_moments(FLOW_MATCHING, target, loss, measure)
    bound = stability_bound(source, moments)
    if config.step_size >= bound:
        warnings.warn(
            f"step_size {config.step_size} at or above stability bound "
            f"{bound:.6g}; {config.mode} dynamics will diverge",
            stacklevel=2,
        )
    if config.mode == "stochastic" and rng is None:
        raise ValueError("stochastic mode needs an rng")

    weight = _checked(weight0, source)
    if config.mode == "exact":
        return _closed_form_flow(weight, source, moments, config)

    vectors, _, star, null = _support(source, moments)
    keep = _log_steps(config.steps)
    trajectory = []
    # an overflow surfaces as the Divergence raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, weight in _stochastic_steps(weight, source, config, target, loss, measure, rng):
            if i not in keep:
                continue
            wv = weight @ vectors
            par, perp = wv - star, _null_offset(weight, wv, vectors, null)
            rec = FlowRecord(
                step=i,
                loss=quadratic_loss(weight, source, moments),
                dist_par=math.sqrt(_dot(par, par)),
                dist_perp=math.sqrt(_dot(perp, perp)),
            )
            if not all(map(math.isfinite, (rec.loss, rec.dist_par, rec.dist_perp))):
                raise Divergence(f"stochastic flow is not finite at step {i} (loss {rec.loss:.6g})")
            trajectory.append(rec)
    return trajectory


def _stochastic_steps(weight, source, config, target, loss, measure, rng):
    """Yield (step, weight) from step 0; each step draws data, noise and t from ``rng``."""
    yield 0, weight
    for i in range(1, config.steps + 1):
        x = sample_data(source, config.batch, rng)
        noise = sample_noise(source.ambient_dim, config.batch, rng)
        t = sample_t(measure, rng, size=config.batch)
        weight = weight + config.step_size * stochastic_gradient(weight, x, noise, t, target, loss)
        yield i, weight


def _closed_form_flow(
    weight0: np.ndarray, source: GaussianSource, moments: MomentSet, config: FlowConfig
) -> list[FlowRecord]:
    (_, lam, _, _), _, norms, rates, factors = _flow_modes(weight0, source, moments, config.step_size)
    # Sigma's spectrum: its positive eigenvalues and a zero for each other dimension
    loss_star = optimal_loss(moments, Spectrum(np.pad(lam, (0, len(weight0) - lam.size)))).total
    trajectory = []
    for i in sorted(_log_steps(config.steps)):
        dists = np.abs(_powers(factors, i)) * norms
        loss = loss_star + 0.5 * float(np.sum(rates * dists**2))
        # hypot scales its arguments, so distances near underflow keep their precision
        trajectory.append(FlowRecord(i, loss, math.hypot(*dists[:-1]), float(dists[-1])))
    return trajectory


_BLOCK_ROWS = 1024  # pairs the Monte Carlo oracle draws and evaluates at a time


def monte_carlo_loss(
    weight: np.ndarray,
    source: GaussianSource,
    target: TargetSpec | float,
    n_samples: int,
    rng: np.random.Generator,
    loss: TargetSpec | None = U_LOSS,
    measure: TimeMeasure = UNIFORM_MEASURE,
    clamp_floor: float | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the training loss with its standard error.

    Samples always come as antithetic noise pairs (n, -n) sharing data and
    time, which lowers variance without biasing the estimate; each pair mean
    counts as one observation for the standard error, and an odd
    ``n_samples`` uses ``n_samples - 1`` draws.  With the data part
    A = alpha x W^T - phi x and the noise part N = sigma n W^T - psi n, the
    pair's residuals are A + N and A - N, so its mean is
    kappa^2 (|A|^2 + |N|^2) / 2 and neither residual is formed.

    The pairs are drawn and evaluated 1024 at a time, each block drawing its
    t, data latents and noise in that order, so besides 8 bytes per
    observation the working set is a few 1024 x D arrays: 7.1 MB traced at
    D = d = 128 with 2^18 samples, where drawing 32768 pairs at once took 70.5 MB.

    Raises:
        DimError: if the weight is not D x D.
        ValueError: if the weight is not finite, or if there are fewer than
            2 pairs, that is ``n_samples`` below 4.
    """
    weight = _square(weight, source.ambient_dim)
    if not np.all(np.isfinite(weight)):
        raise ValueError("weight must be finite")
    if isinstance(target, (int, float)):
        target = k_target(float(target))
    n_pairs = n_samples // 2
    if n_pairs < 2:
        raise ValueError(
            f"need at least 4 samples with antithetic pairs for a standard error, got {n_samples}"
        )
    values = _loss_observations(weight, source, target, n_pairs, rng, loss, measure, clamp_floor)
    estimate = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(n_pairs))
    return estimate, std_error


def _loss_observations(
    weight: np.ndarray,
    source: GaussianSource,
    target: TargetSpec,
    n_pairs: int,
    rng: np.random.Generator,
    loss: TargetSpec | None,
    measure: TimeMeasure,
    clamp_floor: float | None,
) -> np.ndarray:
    """The observations ``monte_carlo_loss`` averages, one per antithetic pair."""
    values = np.empty(n_pairs)
    for lo in range(0, n_pairs, _BLOCK_ROWS):
        m = min(_BLOCK_ROWS, n_pairs - lo)
        t = sample_t(measure, rng, size=m)
        x = sample_data(source, m, rng)
        noise = sample_noise(source.ambient_dim, m, rng)
        kap = kappa(target, loss, t, clamp_floor)
        # in place: a fresh array per operation made the oracle about 5% slower.  Under flow
        # matching alpha = t and sigma = 1 - t
        data_part = x @ weight.T
        data_part *= t[:, None]
        data_part -= target.phi * x
        noise_part = noise @ weight.T
        noise_part *= (1.0 - t)[:, None]
        noise_part -= target.psi * noise
        sq_norm = np.einsum("ij,ij->i", data_part, data_part) + np.einsum("ij,ij->i", noise_part, noise_part)
        values[lo : lo + m] = 0.5 * (kap * kap) * sq_norm
    return values
