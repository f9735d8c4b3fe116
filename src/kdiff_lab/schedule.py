"""Prediction targets, loss weightings, the kappa scale factor, and time samplers.

The lab's one forward process is flow matching, which mixes data and noise as
``z = alpha x + sigma n`` with alpha = t and sigma = 1 - t; no type describes
it, and every formula here writes those two coefficients out.  The network
regresses a target ``u = phi x + psi n`` with constant phi and psi.  A loss is
the MSE of a target too: the target's own (``U_LOSS``), or that of another
target ``w = phi_w x + psi_w n``, which is equivalent to weighting the target
MSE by ``kappa(t)^2`` with

    kappa = (phi_w sigma - psi_w alpha) / (phi sigma - psi alpha)

so the x-, epsilon- and v-losses are the MSEs of ``X_TARGET``,
``EPSILON_TARGET`` and ``V_TARGET``.

All types here are immutable after construction and safe to share across
threads; samplers take an explicit ``numpy.random.Generator`` so parallel
callers can use independent streams.  The logit-normal density takes the
standard normal CDF of its truncation bounds from the C library's ``erfc``, so
only logit-normal draws and CDF values import ``scipy.special``: a run that
only integrates against a time measure never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DegenerateTarget

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)
_SQRT1_2 = math.sqrt(0.5)


def _ndtr(x: float) -> float:
    """Standard normal CDF of a scalar, erfc(-x / sqrt 2) / 2.

    Scaling by the rounded 1 / sqrt 2, as Cephes' ``ndtr`` does, keeps the
    result within 1e-14 relative of ``scipy.special.ndtr`` out to 15 standard
    deviations; dividing by the rounded sqrt 2 does so only to about 6.
    """
    return 0.5 * math.erfc(-x * _SQRT1_2)


@functools.lru_cache(maxsize=None, typed=True)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _narrow_mass(center, half):
    """Standard normal mass over [center - half, center + half], for one interval or an array of
    them, by 16-node Gauss-Legendre quadrature of the density (see ``TimeMeasure._mass``)."""
    x, w = _legendre(16)
    g = np.expand_dims(center, -1) + np.multiply.outer(half, x)
    return half * np.dot(np.exp(-0.5 * g * g), w) / math.sqrt(2.0 * math.pi)


def gauss_legendre_nodes(interval: tuple[float, float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights rescaled to the interval."""
    if n < 2:
        raise ValueError(f"need at least 2 quadrature nodes, got {n}")
    x, w = _legendre(n)
    lo, hi = interval
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _farray(t) -> np.ndarray:
    return np.asarray(t, dtype=np.float64)


def _match_scalar(out: np.ndarray, t_in) -> Union[float, np.ndarray]:
    # mirror scalar inputs with scalar outputs
    if np.ndim(t_in) == 0:
        return float(out)
    return out


# the forward process, the lab's only one; ``analytic.compute_moments`` takes it as its first argument
FLOW_MATCHING = "flow_matching"


@dataclass(frozen=True)
class TargetSpec:
    """Prediction-target coefficients: the regressed quantity is ``phi x + psi n``."""

    phi: float
    psi: float
    name: str = "custom"


EPSILON_TARGET = TargetSpec(0.0, 1.0, name="epsilon")
X_TARGET = TargetSpec(1.0, 0.0, name="x")
V_TARGET = TargetSpec(1.0, -1.0, name="v")


def k_target(k: float) -> TargetSpec:
    """Interpolating target ``k x - (1 - k) n``.

    k = 0, 0.5, 1 recover (up to constant scale) epsilon-, v- and x-prediction.
    Values outside [0, 1] are rejected; the theory is developed on that
    interval only.
    """
    k = float(k)
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"k must lie in [0, 1], got {k}")
    return TargetSpec(k, -(1.0 - k), name=f"k({k:g})")


# the plain target MSE, the loss of whichever target is regressed: kappa is 1 for every target
U_LOSS = None


def kappa(target: TargetSpec, loss: TargetSpec | None, t, clamp_floor: float | None = None):
    """Scale factor relating the loss target's error to the regressed target's, under flow matching:
    ``(phi_w sigma - psi_w alpha) / (phi sigma - psi alpha)`` for a loss target (phi_w, psi_w), and 1
    for ``U_LOSS``.

    Raises DegenerateTarget where |phi sigma - psi alpha| falls below machine
    epsilon, unless an explicit clamp floor is supplied, in which case the
    denominator magnitude is clamped (sign preserved).  The clamp is opt-in:
    analytic callers should not silently mask singular configurations.
    """
    tt = _farray(t)
    if loss is U_LOSS:
        return _match_scalar(np.ones(tt.shape), t)
    s = 1.0 - tt
    num = loss.phi * s - loss.psi * tt
    den = target.phi * s - target.psi * tt
    if clamp_floor is None:
        if np.any(np.abs(den) < _EPS):
            raise DegenerateTarget(
                f"phi*sigma - psi*alpha vanishes for target {target.name!r} "
                f"(min |denominator| = {np.min(np.abs(den)):.3e})"
            )
    else:
        den = np.where(
            den >= 0.0,
            np.maximum(den, clamp_floor),
            np.minimum(den, -clamp_floor),
        )
    return _match_scalar(num / den, t)


@dataclass(frozen=True)
class TimeMeasure:
    """Sampling distribution for diffusion time on a subinterval of [0, 1].

    kind is "uniform" or "logit_normal"; the latter draws t = sigmoid(g) with
    g ~ Normal(mu, sigma^2), truncated to the interval when it is a proper
    subinterval.  The density integrates to 1 over the interval; a
    logit-normal interval whose probability is not a normal double is
    rejected.  A uniform measure takes no mu or sigma other than the defaults.
    """

    kind: str = "uniform"
    interval: tuple[float, float] = (0.0, 1.0)
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if len(self.interval) != 2:
            raise ValueError(f"interval must be [lo, hi], got {list(self.interval)}")
        lo, hi = self.interval
        object.__setattr__(self, "interval", (float(lo), float(hi)))
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"interval must satisfy 0 <= lo < hi <= 1, got {self.interval}")
        if self.kind not in ("uniform", "logit_normal"):
            raise ValueError(f"unknown time-measure kind {self.kind!r}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(f"mu and sigma must be finite, got mu {self.mu} and sigma {self.sigma}")
        if self.kind == "logit_normal" and self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.kind == "uniform" and (self.mu, self.sigma) != (0.0, 1.0):
            raise ValueError(f"mu and sigma apply to logit_normal only, got mu {self.mu} and sigma {self.sigma}")
        if self.kind == "logit_normal" and not (mass := self._mass()) >= _TINY:
            raise ValueError(
                f"interval {list(self.interval)} holds logit-normal mass {mass:.3e}, "
                "below the smallest normal double"
            )

    def _gauss_bounds(self) -> tuple[float, float, float]:
        """Sign s and the interval's standardised normal bounds, each times s.

        s is -1 when both bounds lie above the mean and 1 otherwise, so the
        mirrored bounds never both lie in the upper tail, where Phi rounds to 1
        and the truncation mass |Phi(s gb) - Phi(s ga)| would cancel to 0.
        """
        lo, hi = self.interval
        ga = -math.inf if lo <= 0.0 else (math.log(lo / (1.0 - lo)) - self.mu) / self.sigma
        gb = math.inf if hi >= 1.0 else (math.log(hi / (1.0 - hi)) - self.mu) / self.sigma
        s = -1.0 if ga > 0.0 else 1.0
        return s, s * ga, s * gb

    def _mass(self) -> float:
        """Probability that the untruncated logit-normal time falls in the interval.  Where Phi(gb) -
        Phi(ga) cancels in both orientations the normal density changes by at most about 2x across
        the interval, and 16-node Gauss-Legendre quadrature of it is within 6e-15 relative of the
        exact mass out to 15 standard deviations and 6e-14 out to 38 (mpmath)."""
        _, ga, gb = self._gauss_bounds()
        pa, pb, qa, qb = (_ndtr(g) for g in (ga, gb, -ga, -gb))
        if max(pa, pb) >= 2.0 * min(pa, pb) or max(qa, qb) >= 2.0 * min(qa, qb):
            return abs(pb - pa)
        # the width from lo and hi themselves: the difference of the rounded logits would lose
        # the relative precision of a narrow interval
        lo, hi = self.interval
        half = 0.5 * math.log1p((hi - lo) / (lo * (1.0 - hi))) / self.sigma
        return float(_narrow_mass(0.5 * (ga + gb), half))

    def density(self, t):
        """Probability density at t; zero outside the interval."""
        tt = np.atleast_1d(_farray(t))
        lo, hi = self.interval
        inside = (tt >= lo) & (tt <= hi)
        if self.kind == "uniform":
            out = np.where(inside, 1.0 / (hi - lo), 0.0)
        else:
            norm = self._mass()
            # the density vanishes (in the limit) at t = 0 and t = 1
            interior = inside & (tt > 0.0) & (tt < 1.0)
            out = np.zeros(tt.shape)
            ti = tt[interior]
            g = (np.log(ti / (1.0 - ti)) - self.mu) / self.sigma
            # the normaliser first: with t (1 - t) in it, it can underflow deep in a tail
            scale = self.sigma * math.sqrt(2.0 * math.pi) * norm
            out[interior] = np.exp(-0.5 * g * g) / scale / (ti * (1.0 - ti))
        return _match_scalar(out.reshape(np.shape(t)), t)

    def cdf(self, t):
        """Cumulative distribution at t (for goodness-of-fit checks)."""
        tt = _farray(t)
        lo, hi = self.interval
        if self.kind == "uniform":
            out = np.clip((tt - lo) / (hi - lo), 0.0, 1.0)
            return _match_scalar(out, t)
        from scipy.special import ndtr

        s, ga, gb = self._gauss_bounds()
        pa, pb, qa, qb = ndtr([ga, gb, -ga, -gb])
        tc = np.clip(tt, max(lo, 1e-300), min(hi, 1.0 - 1e-16))
        g = s * (np.log(tc / (1.0 - tc)) - self.mu) / self.sigma
        if max(pa, pb) >= 2.0 * min(pa, pb) or max(qa, qb) >= 2.0 * min(qa, qb):
            out = (ndtr(g) - pa) / (pb - pa)
        else:
            # where ``_mass`` integrates the interval's mass, so is every [lo, t] narrow: integrate
            # it too, over the width from lo and t themselves
            half = 0.5 * np.log1p((tc - lo) / (lo * (1.0 - tc))) / self.sigma
            out = _narrow_mass(0.5 * (ga + g), half) / self._mass()
        out = np.where(tt <= lo, 0.0, np.where(tt >= hi, 1.0, np.clip(out, 0.0, 1.0)))
        return _match_scalar(out, t)


UNIFORM_MEASURE = TimeMeasure()


def sample_t(measure: TimeMeasure, rng: np.random.Generator, size: int | None = None):
    """Draw diffusion times from the measure.

    Logit-normal draws are sigmoid-of-normal; on a proper subinterval the
    underlying normal is sampled by inverse transform of its truncation,
    mirrored when the interval lies above the normal's mean (see
    ``TimeMeasure._gauss_bounds``).
    """
    lo, hi = measure.interval
    if measure.kind == "uniform":
        out = lo + (hi - lo) * rng.random(size)
    else:
        from scipy.special import expit, ndtr, ndtri

        if lo <= 0.0 and hi >= 1.0:
            g = measure.mu + measure.sigma * rng.standard_normal(size)
            out = expit(g)
        else:
            s, ga, gb = measure._gauss_bounds()
            za, zb = ndtr(ga), ndtr(gb)
            u = rng.random(size)
            g = measure.mu + measure.sigma * s * ndtri(za + u * (zb - za))
            out = np.clip(expit(g), lo, hi)
    if size is None:
        return float(out)
    return out

