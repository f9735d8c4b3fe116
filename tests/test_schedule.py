"""Tests for target/loss specs, the kappa scale factor, and time measures."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from kdiff_lab import (
    EPSILON_TARGET,
    U_LOSS,
    UNIFORM_MEASURE,
    V_TARGET,
    X_TARGET,
    DegenerateTarget,
    TargetSpec,
    TimeMeasure,
    k_target,
    kappa,
    sample_t,
)
from kdiff_lab.schedule import gauss_legendre_nodes

from helpers import ZeroNormalRNG

TGRID = np.linspace(0.05, 0.95, 19)
# [0.9, 1] lies 8.4 standard deviations above the mean: 1 - Phi(8.4), about 2e-17, rounds Phi to 1
UPPER_TAIL = TimeMeasure("logit_normal", interval=(0.9, 1.0), mu=-2.0, sigma=0.5)


def _mp_logit(mpmath, t: float):
    """log(t / (1 - t)) of a double, at mpmath's working precision."""
    t = mpmath.mpf(t)
    return mpmath.log(t / (1 - t))


class TestKappa:
    def test_flow_matching_v_target_v_loss_is_one(self):
        np.testing.assert_allclose(
            kappa(V_TARGET, V_TARGET, TGRID), 1.0, atol=1e-14
        )

    def test_u_loss_is_one_for_every_target(self):
        for target in (EPSILON_TARGET, X_TARGET, V_TARGET, k_target(0.3), k_target(1.0)):
            np.testing.assert_array_equal(kappa(target, U_LOSS, TGRID), 1.0)
        # even where the (z, u) <-> (x, n) map is singular
        assert kappa(X_TARGET, U_LOSS, 1.0) == 1.0

    def test_k_half_x_loss_at_midpoint(self):
        assert kappa(k_target(0.5), X_TARGET, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_x_loss_matches_direct_ratio(self):
        # x-loss: kappa = sigma / (phi sigma - psi alpha)
        target = k_target(0.3)
        got = kappa(target, X_TARGET, TGRID)
        sigma = 1.0 - TGRID
        den = 0.3 * sigma + 0.7 * TGRID
        np.testing.assert_allclose(got, sigma / den, rtol=1e-14)

    def test_epsilon_loss_matches_direct_ratio(self):
        target = k_target(0.6)
        got = kappa(target, EPSILON_TARGET, TGRID)
        den = 0.6 * (1.0 - TGRID) + 0.4 * TGRID
        np.testing.assert_allclose(got, -TGRID / den, rtol=1e-14)

    def test_degenerate_target_raises(self):
        # x-target at t=1: phi*sigma - psi*alpha = sigma = 0
        with pytest.raises(DegenerateTarget):
            kappa(X_TARGET, X_TARGET, 1.0)

    def test_clamp_floor_opt_in(self):
        got = kappa(X_TARGET, X_TARGET, 1.0, clamp_floor=0.05)
        assert got == pytest.approx(0.0)  # numerator sigma = 0, denominator clamped
        got = kappa(k_target(1.0), V_TARGET, 0.97, clamp_floor=0.05)
        assert got == pytest.approx(1.0 / 0.05)

    def test_clamp_preserves_sign(self):
        # epsilon target: phi*sigma - psi*alpha = -alpha < 0; magnitude clamping
        # must keep the sign
        got = kappa(EPSILON_TARGET, X_TARGET, 0.3, clamp_floor=0.5)
        assert got == pytest.approx(0.7 / -0.5, rel=1e-12)


class TestRoundTrip:
    """Solving (z, u) -> (x_hat, n_hat) and re-forming the loss variable
    reproduces w_hat - w = kappa * (u_hat - u)."""

    PAIRS = [
        (k_target(0.3), X_TARGET),
        (k_target(0.7), EPSILON_TARGET),
        (k_target(0.5), V_TARGET),
        (V_TARGET, V_TARGET),
        (V_TARGET, X_TARGET),
        (X_TARGET, V_TARGET),
        (EPSILON_TARGET, X_TARGET),
        (k_target(0.9), U_LOSS),
    ]

    @pytest.mark.parametrize("target,loss", PAIRS, ids=[f"{t.name}-{l.name if l else 'u'}" for t, l in PAIRS])
    def test_identity(self, target, loss):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = rng.uniform(0.1, 0.9)
            x, n, u_hat = rng.standard_normal((3, 6))
            a, s = t, 1.0 - t
            phi, psi = target.phi, target.psi
            z = a * x + s * n
            u = phi * x + psi * n
            den = phi * s - psi * a
            x_hat = (-psi * z + s * u_hat) / den
            n_hat = (phi * z - a * u_hat) / den
            phi_w, psi_w = (phi, psi) if loss is U_LOSS else (loss.phi, loss.psi)
            w = phi_w * x + psi_w * n
            w_hat = phi_w * x_hat + psi_w * n_hat
            kap = kappa(target, loss, t)
            np.testing.assert_allclose(w_hat - w, kap * (u_hat - u), atol=1e-12)


class TestKTarget:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            k_target(-0.01)
        with pytest.raises(ValueError):
            k_target(1.01)
        k_target(0.0)
        k_target(1.0)

    def test_endpoints_recover_classic_targets(self):
        # k=0 -> -epsilon, k=0.5 -> v/2, k=1 -> x (constant scalings)
        assert k_target(0.0).phi == -1.0 * EPSILON_TARGET.phi
        assert k_target(0.0).psi == -1.0 * EPSILON_TARGET.psi
        assert k_target(0.5).phi == 0.5 * V_TARGET.phi
        assert k_target(0.5).psi == 0.5 * V_TARGET.psi
        assert k_target(1.0).phi == X_TARGET.phi
        assert k_target(1.0).psi == X_TARGET.psi

    def test_coefficients_are_numbers(self):
        # a target, and so a loss, is its constant coefficients, compared as values
        assert k_target(0.25) == TargetSpec(0.25, -0.75, name="k(0.25)")
        assert (X_TARGET.phi, X_TARGET.psi, V_TARGET.psi) == (1.0, 0.0, -1.0)
        assert U_LOSS is None
        # the named targets are shared as losses, so they cannot change
        with pytest.raises(AttributeError):
            X_TARGET.phi = 0.0


def _quadrature(fn, interval, nodes=256):
    t, w = gauss_legendre_nodes(interval, nodes)
    return float(np.sum(w * fn(t)))


class TestTimeMeasure:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeMeasure(interval=(0.5, 0.5))
        with pytest.raises(ValueError):
            TimeMeasure(interval=(-0.1, 1.0))
        with pytest.raises(ValueError):
            TimeMeasure(kind="nope")

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=r"^mu and sigma must be finite, got mu .* and sigma .*$"):
            TimeMeasure("logit_normal", **{field: value})

    @pytest.mark.parametrize(
        "measure",
        [
            UNIFORM_MEASURE,
            TimeMeasure(interval=(0.2, 0.7)),
            TimeMeasure("logit_normal", mu=0.0, sigma=1.0),
            TimeMeasure("logit_normal", mu=-0.8, sigma=0.8),
            TimeMeasure("logit_normal", interval=(0.1, 0.9), mu=0.5, sigma=1.5),
        ],
        ids=["uniform", "uniform-sub", "ln01", "ln-pixel", "ln-truncated"],
    )
    def test_density_normalises(self, measure):
        total = _quadrature(measure.density, measure.interval)
        assert total == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        mu=st.floats(-3.0, 3.0),
        za=st.floats(-40.0, 40.0),
        width=st.floats(1e-5, 40.0),
        data=st.data(),
        open_lo=st.booleans(),
    )
    def test_logit_normal_mass_over_any_interval(self, mu, za, width, data, open_lo):
        # the interval [za, za + width] in standard deviations, so both tails are reached.  Its
        # logits stay below 10, or the interval runs to 1, because the spacing of doubles near
        # t = 1 would limit quad's own precision there; and it is at least 1e-5 standard
        # deviations wide, because the logits of lo and hi are rounded to about 1e-16, which on
        # a narrower interval moves its mass by more than the 1e-9 asked of quad's total
        cap = min(3.0, (10.0 - mu) / za) if za > 0.0 else 3.0
        assume(cap >= 0.2)
        sigma = data.draw(st.floats(0.2, cap), label="sigma")
        la, lb = mu + sigma * za, mu + sigma * (za + width)
        lo = 0.0 if open_lo else float(special.expit(la))
        hi = float(special.expit(lb)) if lb <= 10.0 else 1.0
        ga, gb = ((math.log(t / (1.0 - t)) - mu) / sigma if 0.0 < t < 1.0 else math.copysign(math.inf, t - 0.5)
                  for t in (lo, hi))
        # scipy's Phi, in the orientation where its difference cancels least
        small, large = min(special.ndtr([[ga, gb], [-gb, -ga]]), key=lambda z: z[0] / z[1] if z[1] > 0.0 else 1.0)
        try:
            m = TimeMeasure("logit_normal", interval=(lo, hi), mu=mu, sigma=sigma)
        except ValueError as exc:
            assert "below the smallest normal double" in str(exc)
            assert large - small < 1.001 * np.finfo(np.float64).tiny
            return
        points = [t for t in (float(special.expit(mu)),) if lo < t < hi]
        total = integrate.quad(m.density, lo, hi, points=points, epsabs=1e-11, epsrel=1e-11, limit=500)[0]
        assert total == pytest.approx(1.0, abs=1e-9)
        # past 15 standard deviations Phi's condition number g^2 lets two libraries differ by
        # more than 1e-14 in any case
        if max((abs(g) for g in (ga, gb) if math.isfinite(g)), default=0.0) > 15.0:
            return
        if small <= 0.5 * large:
            # where that difference keeps half its larger term
            assert m._mass() == pytest.approx(large - small, rel=1e-14, abs=0.0)
        else:
            # where it cancels in both orientations, against adaptive quadrature of the normal
            # density, whose condition number g^2 / 2 lets the two differ by a few 1e-14 at 15
            # standard deviations.  It runs over the offset from ga to the exact difference of
            # the logits, log1p((hi - lo) / (lo (1 - hi))) / sigma: gb - ga is off by about 1e-16
            width_exact = math.log1p((hi - lo) / (lo * (1.0 - hi))) / sigma
            exact = integrate.quad(lambda s: stats.norm.pdf(ga + s), 0.0, width_exact, epsabs=0.0, epsrel=1e-13)[0]
            assert m._mass() == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_narrow_interval_mass_does_not_cancel(self):
        # Phi(gb) - Phi(ga) near 0.5 kept 7.6e-6 relative error here, and the difference of the
        # rounded logits 2.2e-12.  The value is the interval's mass at 50 digits (mpmath)
        m = TimeMeasure("logit_normal", interval=(0.5, float(special.expit(4.4e-12))))
        assert m._mass() == pytest.approx(1.7553603522812522e-12, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k", [1, 5, 50, 199])
    def test_narrow_interval_mass_away_from_the_center(self, k):
        # the logits of 0.7 and 0.7 + k 1e-14 are rounded to about 1e-16, which is up to 1e-3 of
        # their difference: the width comes from lo and hi themselves
        mpmath = pytest.importorskip("mpmath")
        lo, hi = 0.7, 0.7 + k * 1e-14
        with mpmath.workdps(40):
            exact = float(mpmath.ncdf(_mp_logit(mpmath, hi)) - mpmath.ncdf(_mp_logit(mpmath, lo)))
        assert TimeMeasure("logit_normal", interval=(lo, hi))._mass() == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_density_deep_in_the_lower_tail(self):
        # 38 to 37 standard deviations below the mean the mass is 5.7e-300, and sigma sqrt(2 pi)
        # t (1 - t) times it would underflow to 0
        mpmath = pytest.importorskip("mpmath")
        lo, hi = float(special.expit(-76.0)), float(special.expit(-74.0))
        m = TimeMeasure("logit_normal", interval=(lo, hi), mu=0.0, sigma=2.0)
        t = special.expit(np.array([-75.5, -75.0, -74.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = m.density(t)
        assert np.all(np.isfinite(got))
        with mpmath.workdps(40):
            mass = mpmath.ncdf(_mp_logit(mpmath, hi) / 2) - mpmath.ncdf(_mp_logit(mpmath, lo) / 2)
            exact = [
                float(mpmath.npdf(_mp_logit(mpmath, v) / 2) / (2 * mpmath.mpf(v) * (1 - mpmath.mpf(v)) * mass))
                for v in t
            ]
        np.testing.assert_allclose(got, exact, rtol=1e-12, atol=0.0)

    def test_interval_without_representable_mass_is_rejected(self):
        # 200 standard deviations above the mean: Phi(-200) underflows to 0
        with pytest.raises(ValueError, match=r"holds logit-normal mass 0\.000e\+00, below the smallest normal double"):
            TimeMeasure("logit_normal", interval=(0.9, 1.0), mu=-2.0, sigma=0.0215)

    def test_logit_normal_density_vanishes_at_bounds(self):
        m = TimeMeasure("logit_normal", mu=0.0, sigma=1.0)
        assert m.density(0.0) == 0.0
        assert m.density(1.0) == 0.0

    def test_logit_normal_density_at_center(self):
        # change of variables: normal pdf at 0 divided by t(1-t) = 1/4
        m = TimeMeasure("logit_normal", mu=0.0, sigma=1.0)
        assert m.density(0.5) == pytest.approx(4.0 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_density_zero_outside_interval(self):
        m = TimeMeasure(interval=(0.2, 0.7))
        assert m.density(0.1) == 0.0
        assert m.density(0.8) == 0.0
        assert m.density(0.5) == pytest.approx(2.0)


class TestEffectiveWeight:
    def test_density_matches_empirical_histogram(self):
        m = TimeMeasure("logit_normal", mu=0.0, sigma=1.0)
        rng = np.random.default_rng(7)
        draws = sample_t(m, rng, size=1_000_000)
        hist, edges = np.histogram(draws, bins=40, range=(0.0, 1.0), density=True)
        centers = 0.5 * (edges[:-1] + edges[1:])
        expected = m.density(centers)
        # bin counts are Poisson-ish; allow 5 standard errors per bin
        counts = hist * len(draws) * (edges[1] - edges[0])
        se = np.sqrt(np.maximum(counts, 1.0)) / (len(draws) * (edges[1] - edges[0]))
        assert np.all(np.abs(hist - expected) < 5.0 * se + 1e-3)


class TestSampleT:
    def test_uniform_stays_in_interval(self):
        rng = np.random.default_rng(0)
        m = TimeMeasure(interval=(0.25, 0.75))
        draws = sample_t(m, rng, size=10_000)
        assert draws.min() >= 0.25 and draws.max() <= 0.75
        t = sample_t(UNIFORM_MEASURE, rng)
        assert isinstance(t, float) and 0.0 <= t <= 1.0

    def test_logit_normal_center_draw(self):
        # underlying normal draw of zero lands exactly at sigmoid(0)
        m = TimeMeasure("logit_normal", mu=0.0, sigma=1.0)
        assert sample_t(m, ZeroNormalRNG()) == pytest.approx(0.5)
        m2 = TimeMeasure("logit_normal", mu=-0.8, sigma=0.8)
        assert sample_t(m2, ZeroNormalRNG()) == pytest.approx(1.0 / (1.0 + math.exp(0.8)))

    @pytest.mark.parametrize(
        "measure",
        [
            UNIFORM_MEASURE,
            TimeMeasure("logit_normal", mu=0.0, sigma=1.0),
            TimeMeasure("logit_normal", mu=-0.8, sigma=0.8),
            TimeMeasure("logit_normal", interval=(0.1, 0.8), mu=0.0, sigma=1.0),
            UPPER_TAIL,
            # an interval of 9909 doubles, fewer than the draws: t itself is that coarse
            TimeMeasure("logit_normal", interval=(0.5, float(special.expit(4.4e-12)))),
        ],
        ids=["uniform", "ln01", "ln-pixel", "ln-truncated", "ln-upper-tail", "ln-narrow"],
    )
    def test_sampler_matches_density(self, measure):
        rng = np.random.default_rng(1234)
        draws = sample_t(measure, rng, size=1_000_000)
        ks = stats.kstest(draws, measure.cdf).statistic
        assert ks < 0.002
        # where the interval holds fewer doubles than there are draws, they reach nearly all of them
        lo, hi = np.array(measure.interval).view(np.int64)
        if hi - lo < draws.size:
            assert np.unique(draws).size >= 0.9 * (hi - lo + 1)

    def test_upper_tail_cdf_integrates_the_density(self):
        m = UPPER_TAIL
        for t in (0.9, 0.9005, 0.901, 0.903, 0.91, 0.95, 1.0):
            assert m.cdf(t) == pytest.approx(integrate.quad(m.density, 0.9, t)[0], abs=1e-10)
        draws = sample_t(m, np.random.default_rng(8), size=10_000)
        assert draws.min() >= 0.9 and draws.max() < 0.95

    @pytest.mark.parametrize(
        "lo, hi", [(0.5, float(special.expit(4.4e-12))), (0.7, 0.7 + 1e-14), (0.7, 0.7 + 199e-14)],
        ids=["center", "away-1", "away-199"],
    )
    def test_narrow_interval_cdf_does_not_cancel(self, lo, hi):
        # Phi(gb) - Phi(ga) cancels here: at the center interval's midpoint the plain ratio of Phi
        # differences read 0.49996837644677755.  The values are the ratio of masses at 50 digits
        mpmath = pytest.importorskip("mpmath")
        m = TimeMeasure("logit_normal", interval=(lo, hi))
        t = lo + (hi - lo) * np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        with mpmath.workdps(50):
            base = mpmath.ncdf(_mp_logit(mpmath, lo))
            mass = mpmath.ncdf(_mp_logit(mpmath, hi)) - base
            exact = [float((mpmath.ncdf(_mp_logit(mpmath, v)) - base) / mass) for v in t]
        np.testing.assert_allclose(m.cdf(t), exact, rtol=1e-13, atol=0.0)
        assert m.cdf(float(t[2])) == pytest.approx(exact[2], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "measure",
        [
            TimeMeasure("logit_normal", interval=(0.1, 0.8), mu=0.0, sigma=1.0),
            TimeMeasure("logit_normal", interval=(0.0, 0.3), mu=0.5, sigma=0.7),
            TimeMeasure("logit_normal", interval=(0.05, 1.0), mu=-0.4, sigma=0.9),
            TimeMeasure("logit_normal", mu=-0.8, sigma=0.8),
            UPPER_TAIL,
        ],
        ids=["below-mean", "open-lo", "open-hi", "whole", "upper-tail"],
    )
    def test_wide_interval_cdf_is_the_ratio_of_phi_differences(self, measure):
        # where Phi(gb) - Phi(ga) does not cancel, scipy's plain ratio of Phi differences is the CDF
        lo, hi = measure.interval
        t = np.linspace(lo, hi, 203)[1:-1]
        v = np.concatenate(([lo], t, [hi]))
        with np.errstate(divide="ignore"):  # the logit of 0 or 1 is infinite
            logits = (np.log(v / (1.0 - v)) - measure.mu) / measure.sigma
        s = -1.0 if logits[0] > 0.0 else 1.0  # the orientation in which Phi is not 1 at both bounds
        za, zt, zb = special.ndtr(s * logits[0]), special.ndtr(s * logits[1:-1]), special.ndtr(s * logits[-1])
        np.testing.assert_allclose(measure.cdf(t), (zt - za) / (zb - za), rtol=1e-14, atol=0.0)

    def test_truncation_below_the_mean_keeps_the_plain_inverse_transform(self):
        # ga <= 0: the draws are those of the unmirrored inverse transform, bit for bit
        for m in (TimeMeasure("logit_normal", interval=(0.1, 0.8), mu=0.0, sigma=1.0),
                  TimeMeasure("logit_normal", interval=(0.0, 0.3), mu=0.5, sigma=0.7),
                  TimeMeasure("logit_normal", interval=(0.05, 1.0), mu=-0.4, sigma=0.9)):
            lo, hi = m.interval
            g = [(math.log(t / (1.0 - t)) - m.mu) / m.sigma if 0.0 < t < 1.0 else math.copysign(math.inf, t - 0.5)
                 for t in (lo, hi)]
            za, zb = special.ndtr(g)
            u = np.random.default_rng(3).random(1000)
            expected = np.clip(special.expit(m.mu + m.sigma * special.ndtri(za + u * (zb - za))), lo, hi)
            np.testing.assert_array_equal(sample_t(m, np.random.default_rng(3), size=1000), expected)

    def test_truncated_draws_stay_inside(self):
        m = TimeMeasure("logit_normal", interval=(0.1, 0.8), mu=0.0, sigma=1.0)
        rng = np.random.default_rng(5)
        draws = sample_t(m, rng, size=50_000)
        assert draws.min() >= 0.1 and draws.max() <= 0.8

    def test_logit_normal_mean_matches_quadrature(self):
        m = TimeMeasure("logit_normal", mu=-0.8, sigma=0.8)
        expected = _quadrature(lambda t: t * m.density(t), m.interval)
        second = _quadrature(lambda t: t * t * m.density(t), m.interval)
        rng = np.random.default_rng(99)
        draws = sample_t(m, rng, size=1_000_000)
        se = math.sqrt((second - expected**2) / len(draws))
        assert abs(float(np.mean(draws)) - expected) < 3.0 * se
