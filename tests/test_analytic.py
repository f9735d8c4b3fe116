"""Tests for the moment integrals, equilibrium formulas, and colored-data results."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdiff_lab import (
    EPSILON_TARGET,
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    V_TARGET,
    X_TARGET,
    DegenerateTarget,
    DimError,
    DimensionPair,
    GaussianSource,
    MomentSet,
    QuadratureDivergence,
    SingularEquilibrium,
    Spectrum,
    TargetSpec,
    TimeMeasure,
    argmin_k,
    colored_mode_coefficients,
    colored_mode_losses,
    colored_optimal_k,
    compute_moments,
    equilibrium_weight,
    k_target,
    optimal_loss,
    optimal_loss_poly,
    u_loss_optimal_k,
)
from kdiff_lab import analytic, schedule


def moments_for_k(k, loss=U_LOSS, measure=UNIFORM_MEASURE, nodes=64):
    return compute_moments(FLOW_MATCHING, k_target(k), loss, measure, quad_nodes=nodes)


def loss_at(k, spectrum, loss=U_LOSS, measure=UNIFORM_MEASURE):
    """The equilibrium loss of the k-target on a spectrum."""
    return optimal_loss(compute_moments(FLOW_MATCHING, k_target(k), loss, measure), spectrum)


def _bits(loss) -> bytes:
    """An ``OptimalLoss``'s three floats as bytes, so that even -0.0 and 0.0 differ."""
    return np.array([loss.total, loss.parallel, loss.perpendicular]).tobytes()


# uniform time on [0, 1] or a logit-normal measure
_MEASURES = st.one_of(
    st.just(UNIFORM_MEASURE),
    st.builds(TimeMeasure, st.just("logit_normal"), mu=st.floats(-2.0, 2.0), sigma=st.floats(0.3, 2.0)),
)
_LOSSES = st.sampled_from([U_LOSS, X_TARGET, EPSILON_TARGET, V_TARGET])
# a few fixed values make repeated and zero eigenvalues common
_EIGENVALUES = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 10.0), min_size=1, max_size=48)


def manifold_coefficients(moments):
    """(c_par, c_perp): the equilibrium coefficients of the unit and zero eigenvalues."""
    c_par, c_perp = colored_mode_coefficients([1.0, 0.0], moments)
    return float(c_par), float(c_perp)


class TestComputeMoments:
    def test_uniform_u_loss_flow_matching_values(self):
        m = moments_for_k(1.0)
        assert m.one == pytest.approx(1.0, abs=1e-12)
        assert m.alpha == pytest.approx(0.5, abs=1e-12)
        assert m.sigma == pytest.approx(0.5, abs=1e-12)
        assert m.alpha_sq == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert m.sigma_sq == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_x_target_weighted_moments(self):
        m = moments_for_k(1.0)
        assert m.phi_alpha == pytest.approx(0.5, abs=1e-12)
        assert m.psi_sigma == pytest.approx(0.0, abs=1e-12)

    def test_k03_weighted_moments(self):
        m = moments_for_k(0.3)
        assert m.phi_alpha == pytest.approx(0.15, abs=1e-12)
        assert m.psi_sigma == pytest.approx(-0.35, abs=1e-12)
        assert m.phi_sq == pytest.approx(0.09, abs=1e-12)
        assert m.psi_sq == pytest.approx(0.49, abs=1e-12)

    def test_cauchy_schwarz_holds(self):
        rng = np.random.default_rng(3)
        measures = [
            UNIFORM_MEASURE,
            TimeMeasure("logit_normal", mu=0.0, sigma=1.0),
            TimeMeasure("logit_normal", mu=-0.8, sigma=0.8),
        ]
        for _ in range(30):
            k = rng.uniform(0.0, 1.0)
            m = moments_for_k(k, measure=measures[rng.integers(len(measures))], nodes=96)
            assert m.psi_sigma**2 <= m.psi_sq * m.sigma_sq + 1e-14

    def test_non_finite_integrand_raises(self):
        class InfiniteAboveHalf(TimeMeasure):
            def density(self, t):
                return np.where(np.asarray(t) > 0.5, np.inf, 1.0)

        with pytest.raises(QuadratureDivergence, match=r"^non-finite integrand for moment 'one'$"):
            compute_moments(FLOW_MATCHING, k_target(1.0), U_LOSS, InfiniteAboveHalf())

    @pytest.mark.parametrize("process", ["ddpm", "", None, 1.0, object()])
    def test_only_flow_matching_is_a_process(self, process):
        with pytest.raises(ValueError, match=r"^the only forward process is 'flow_matching', got [^\n]+$"):
            compute_moments(process, k_target(0.5), U_LOSS, UNIFORM_MEASURE)

    @pytest.mark.parametrize(
        "mu, sigma, mass",
        [(0.0, 0.03, "0.693581"), (0.0, 0.01, "5.47591e-05"), (0.0, 0.05, "0.989062"), (-4.0, 2.0, "1.00446")],
    )
    def test_quadrature_that_misses_the_density_raises(self, mu, sigma, mass):
        measure = TimeMeasure("logit_normal", mu=mu, sigma=sigma)
        message = rf"^the time measure's quadrature mass is {mass}, not 1 within 0\.001, at quad_nodes=64$"
        with pytest.raises(QuadratureDivergence, match=message):
            moments_for_k(0.5, measure=measure)
        # enough nodes resolve the narrowest of them
        if sigma == 0.03:
            assert moments_for_k(0.5, measure=measure, nodes=2000).one == pytest.approx(1.0, abs=1e-12)

    def test_widest_tested_measure_passes_the_mass_check(self):
        # the edge of the logit-normal ranges the tests draw from: mass off by 2.2e-4 at 64 nodes
        for mu in (-2.0, 2.0):
            moments_for_k(0.5, measure=TimeMeasure("logit_normal", mu=mu, sigma=2.0))

    def test_cached_legendre_nodes_are_read_only(self):
        x, w = schedule._legendre(64)
        for arr in (x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        assert schedule._legendre(64)[0] is x

    @pytest.mark.parametrize("nodes", [2, 64, 200])
    @pytest.mark.parametrize(
        "loss, measure",
        [
            (U_LOSS, UNIFORM_MEASURE),
            (V_TARGET, TimeMeasure("logit_normal", interval=(0.05, 0.95), mu=-0.4, sigma=0.9)),
        ],
        ids=["u-uniform", "v-logit-normal"],
    )
    def test_cached_nodes_give_the_moments_of_fresh_ones(self, monkeypatch, nodes, loss, measure):
        def outcome():
            # 2 nodes put the logit-normal's mass at 1.02098, which is rejected: then cached and
            # fresh nodes must give the same message, and so the same mass
            try:
                return moments_for_k(0.7, loss, measure, nodes)
            except QuadratureDivergence as exc:
                return str(exc)

        cached = [outcome() for _ in range(2)]
        assert isinstance(cached[0], MomentSet) == (nodes > 2 or measure.kind == "uniform")
        monkeypatch.setattr(schedule, "_legendre", np.polynomial.legendre.leggauss)
        assert cached[0] == cached[1] == outcome()

    def test_min_nodes(self):
        with pytest.raises(ValueError):
            moments_for_k(0.5, nodes=1)

    @settings(max_examples=60, deadline=None)
    @given(phi=st.floats(-10.0, 10.0), psi=st.floats(-10.0, 10.0), loss=_LOSSES, measure=_MEASURES)
    def test_target_moments_are_the_five_sums_times_constants(self, phi, psi, loss, measure):
        try:
            m = compute_moments(FLOW_MATCHING, TargetSpec(phi, psi), loss, measure)
        except DegenerateTarget:
            return
        products = [phi * m.alpha, psi * m.sigma, phi * phi * m.one, psi * psi * m.one]
        assert np.array([m.phi_alpha, m.psi_sigma, m.phi_sq, m.psi_sq]).tobytes() == np.array(products).tobytes()
        if loss is U_LOSS:
            # kappa is 1, so the five sums are those of any other target
            free = moments_for_k(0.5, measure=measure)
            sums = ("one", "alpha", "sigma", "alpha_sq", "sigma_sq")
            assert [getattr(m, name) for name in sums] == [getattr(free, name) for name in sums]

    @pytest.mark.parametrize("loss", [U_LOSS, X_TARGET, V_TARGET], ids=["u", "x", "v"])
    @pytest.mark.parametrize(
        "measure",
        [
            UNIFORM_MEASURE,
            TimeMeasure("logit_normal", mu=-0.4, sigma=0.9),
            TimeMeasure("logit_normal", interval=(0.05, 0.95), mu=0.5, sigma=1.5),
        ],
        ids=["uniform", "logit-normal", "logit-normal-sub"],
    )
    def test_moments_match_a_40_digit_sum_over_the_same_nodes(self, loss, measure):
        mpmath = pytest.importorskip("mpmath")
        t, wq = schedule.gauss_legendre_nodes(measure.interval, 64)
        density = measure.density(t)
        for k in (0.1, 0.5, 0.8, 1.0):
            target = k_target(k)
            got = compute_moments(FLOW_MATCHING, target, loss, measure)
            with mpmath.workdps(40):
                mp = [mpmath.mpf(float(v)) for v in t]
                weight = [mpmath.mpf(a) * mpmath.mpf(b) * mpmath.mpf(c) ** 2
                          for a, b, c in zip(wq, density, schedule.kappa(target, loss, t))]
                one, alpha, sigma, alpha_sq, sigma_sq = (
                    mpmath.fsum(w * f(v) for w, v in zip(weight, mp))
                    for f in (lambda v: 1, lambda v: v, lambda v: 1 - v, lambda v: v * v, lambda v: (1 - v) ** 2)
                )
                phi, psi = mpmath.mpf(target.phi), mpmath.mpf(target.psi)
                exact = [one, alpha, sigma, alpha_sq, sigma_sq, phi * alpha, psi * sigma, phi**2 * one, psi**2 * one]
                for (name, value), ref in zip(vars(got).items(), exact):
                    assert abs(value - ref) <= 1e-15 * abs(ref), f"{name} at k={k}: {value!r} against {ref}"


class TestOptimalWeightCoeffs:
    def test_x_prediction(self):
        assert manifold_coefficients(moments_for_k(1.0)) == pytest.approx((0.75, 0.0), abs=1e-12)

    def test_v_prediction(self):
        assert manifold_coefficients(moments_for_k(0.5)) == pytest.approx((0.0, -0.75), abs=1e-12)

    def test_epsilon_prediction(self):
        assert manifold_coefficients(moments_for_k(0.0)) == pytest.approx((-0.75, -1.5), abs=1e-12)

    def test_singular_denominator_raises(self):
        # the moments of x-prediction, uniform time and no noise (sigma = 0): sigma_sq = 0
        m = MomentSet(
            one=1.0, alpha=0.5, sigma=0.0, alpha_sq=1.0 / 3.0, sigma_sq=0.0,
            phi_alpha=0.5, psi_sigma=0.0, phi_sq=1.0, psi_sq=0.0,
        )
        with pytest.raises(SingularEquilibrium):
            manifold_coefficients(m)
        with pytest.raises(SingularEquilibrium):
            optimal_loss(m, Spectrum.manifold(4, 2))


class TestOptimalLoss:
    def test_x_prediction_has_no_perpendicular_loss(self):
        for d in (1, 3, 8):
            res = optimal_loss(moments_for_k(1.0), Spectrum.manifold(d, d))
            assert res.perpendicular == pytest.approx(0.0, abs=1e-12)
            assert res.total == pytest.approx(5.0 * d / 16.0, abs=1e-10)

    def test_v_prediction_low_dim_value(self):
        res = optimal_loss(moments_for_k(0.5), Spectrum.manifold(2, 1))
        assert res.total == pytest.approx(0.28125, abs=1e-12)

    def test_epsilon_prediction_dense_value(self):
        for d in (1, 5):
            res = optimal_loss(moments_for_k(0.0), Spectrum.manifold(d, d))
            assert res.total == pytest.approx(5.0 * d / 16.0, abs=1e-10)
            assert res.perpendicular == pytest.approx(0.0, abs=1e-12)

    def test_contributions_non_negative(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            d = int(rng.integers(1, 9))
            ambient = int(rng.integers(d, d + 20))
            res = optimal_loss(moments_for_k(rng.uniform(0, 1)), Spectrum.manifold(ambient, d))
            assert res.parallel >= -1e-12
            assert res.perpendicular >= -1e-12


class TestOptimalLossOverTheSpectrum:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lam=_EIGENVALUES, k=st.floats(0.0, 1.0), loss=_LOSSES, measure=_MEASURES, data=st.data())
    def test_sums_the_mode_losses_by_eigenspace(self, lam, k, loss, measure, data):
        moments = compute_moments(FLOW_MATCHING, k_target(k), loss, measure)
        got = optimal_loss(moments, Spectrum(lam))
        total = np.sum(colored_mode_losses(lam, moments))
        assert got.total == pytest.approx(total, rel=1e-12, abs=0.0)
        assert got.parallel + got.perpendicular == got.total
        zero = colored_mode_losses([0.0], moments)[0]
        assert got.perpendicular == lam.count(0.0) * zero
        # the order of the eigenvalues does not reach a single bit
        shuffled = data.draw(st.permutations(lam))
        assert _bits(optimal_loss(moments, Spectrum(shuffled))) == _bits(got)

    def test_overflowing_eigenvalue_is_rejected(self):
        # the per-mode formulas square a term of order lam, which overflows above about 1.3e154
        for k, measure in ((0.5, UNIFORM_MEASURE), (0.3, TimeMeasure("logit_normal", mu=-0.4, sigma=0.9))):
            m = moments_for_k(k, measure=measure)
            for lam in ([1e155, 0.0], [1.0, 1e200], [0.0, 1e300]):
                for formula in (colored_mode_coefficients, colored_mode_losses, u_loss_optimal_k):
                    with pytest.raises(SingularEquilibrium, match="overflow"):
                        formula(lam, m)
                with pytest.raises(SingularEquilibrium, match="overflow"):
                    optimal_loss(m, Spectrum(lam))
                # the uniform-time closed form rejects what the moment path rejects
                with pytest.raises(SingularEquilibrium, match="overflow"):
                    colored_optimal_k(Spectrum(lam))
            # below that every result is finite
            lam = [1e150, 0.0]
            assert np.all(np.isfinite(colored_mode_coefficients(lam, m)))
            assert np.all(np.isfinite(colored_mode_losses(lam, m)))
            assert 0.0 <= u_loss_optimal_k(lam, m) <= 1.0
            assert np.isfinite(optimal_loss(m, Spectrum(lam)).total)
            assert 0.0 <= colored_optimal_k(Spectrum(lam)) <= 1.0


class TestOptimalLossPoly:
    def test_point_values(self):
        assert optimal_loss_poly(1.0, DimensionPair(4, 4)) == pytest.approx(1.25)
        for d in (1, 2, 7):
            assert optimal_loss_poly(0.5, DimensionPair(d, d)) == pytest.approx(d / 4.0)
        assert optimal_loss_poly(0.0, DimensionPair(2, 1)) == pytest.approx(7.0 / 16.0)

    def test_matches_quadrature_loss(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(1, 30))
            ambient = int(rng.integers(d, d + 60))
            k = float(rng.uniform(0, 1))
            via_moments = optimal_loss(moments_for_k(k), Spectrum.manifold(ambient, d)).total
            assert optimal_loss_poly(k, DimensionPair(ambient, d)) == pytest.approx(via_moments, abs=1e-10)

    def test_vectorised_over_k(self):
        ks = np.linspace(0, 1, 11)
        dims = DimensionPair(10, 3)
        out = optimal_loss_poly(ks, dims)
        np.testing.assert_allclose(out, [optimal_loss_poly(float(k), dims) for k in ks])


def manifold_k(ambient, d):
    """D / (D + d), the closed-form k* of manifold data."""
    return colored_optimal_k(Spectrum.manifold(ambient, d))


class TestOptimalK:
    def test_dense_data_prefers_v_prediction(self):
        for d in (1, 4, 32):
            assert manifold_k(d, d) == pytest.approx(0.5)

    def test_formula_values(self):
        assert manifold_k(100, 10) == pytest.approx(10.0 / 11.0)
        assert manifold_k(64, 4) == pytest.approx(16.0 / 17.0)

    def test_matches_numeric_minimiser(self):
        numeric = argmin_k(lambda k: optimal_loss_poly(k, DimensionPair(64, 4)), tol=1e-8)
        assert abs(numeric - manifold_k(64, 4)) < 1e-7

    def test_monotonicity_in_dimensions(self):
        # nondecreasing in D at fixed d, nonincreasing in d at fixed D
        for d in (1, 3, 17):
            ks = [manifold_k(D, d) for D in range(d, d + 50)]
            assert all(a <= b for a, b in zip(ks, ks[1:]))
        for D in (16, 128):
            ks = [manifold_k(D, d) for d in range(1, D + 1)]
            assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            d = int(rng.integers(1, 512))
            ambient = int(rng.integers(d, 513))
            assert 0.5 <= manifold_k(ambient, d) <= 1.0


class TestArgminK:
    def test_poly_minimiser(self):
        dims = DimensionPair(100, 10)
        got = argmin_k(lambda k: optimal_loss_poly(k, dims), tol=1e-8)
        assert abs(got - 10.0 / 11.0) < 1e-7

    def test_constant_returns_midpoint(self):
        assert argmin_k(lambda k: 3.0) == pytest.approx(0.5, abs=1e-9)

    def test_colored_quadratic(self):
        spec = Spectrum(np.array([2.0, 1.0, 0.0]))
        got = argmin_k(lambda k: loss_at(k, spec).total, tol=1e-8)
        assert abs(got - 0.5) < 1e-6

    def test_tol_validation(self):
        # NaN compares false with every bound, so a plain tol <= 0 check would let it through
        for tol in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                argmin_k(lambda k: k, tol=tol)

    def test_bracket_confines_the_search(self):
        # two minima, at 0.2 and 0.8: each bracket finds its own
        def two_wells(k):
            return min((k - 0.2) ** 2, (k - 0.8) ** 2)

        assert argmin_k(two_wells, bracket=(0.0, 0.5)) == pytest.approx(0.2, abs=1e-7)
        assert argmin_k(two_wells, bracket=(0.6, 1.0)) == pytest.approx(0.8, abs=1e-7)
        assert argmin_k(lambda k: 3.0, bracket=(0.2, 0.4)) == pytest.approx(0.3, abs=1e-9)
        with pytest.raises(ValueError):
            argmin_k(two_wells, bracket=(0.5, 0.5))


class TestSpectrum:
    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Spectrum(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            GaussianSource.from_spectrum([bad, 1.0])

    def test_trace(self):
        assert Spectrum(np.array([2.0, 1.0, 0.0])).trace == pytest.approx(3.0)

    def test_manifold(self):
        np.testing.assert_array_equal(Spectrum.manifold(5, 2).eigenvalues, [1.0, 1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(Spectrum.manifold(3, 3).eigenvalues, [1.0, 1.0, 1.0])
        for ambient, d in ((4, 0), (3, 4), (0, 0)):
            with pytest.raises(DimError, match=rf"need 1 <= d <= D, got d={d}, D={ambient}"):
                Spectrum.manifold(ambient, d)


class TestDimensionPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            DimensionPair(4, 0)
        with pytest.raises(ValueError):
            DimensionPair(3, 4)


def _colored_total_closed_form(lam, k):
    # uniform/unit-weighted closed form:
    # (1/8) [ (D + tr) k^2 - 2 D k + sum (1 + 4 lam)/(1 + lam) ]
    lam = np.asarray(lam, dtype=float)
    D = lam.size
    return ((D + lam.sum()) * k * k - 2.0 * D * k + np.sum((1.0 + 4.0 * lam) / (1.0 + lam))) / 8.0


class TestColored:
    def test_binary_spectrum_reduces_to_mode_split(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            ambient = int(rng.integers(d + 1, 12))
            k = float(rng.uniform(0, 1))
            lam = np.concatenate([np.ones(d), np.zeros(ambient - d)])
            moments = moments_for_k(k)
            per_mode = colored_mode_losses(lam, moments)
            split = optimal_loss(moments, Spectrum.manifold(ambient, d))
            assert np.sum(per_mode[:d]) == pytest.approx(split.parallel, abs=1e-10)
            assert np.sum(per_mode[d:]) == pytest.approx(split.perpendicular, abs=1e-10)
            assert np.sum(per_mode) == pytest.approx(split.total, abs=1e-10)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.integers(1, 256).flatmap(lambda D: st.tuples(st.just(D), st.integers(1, D))),
        k=st.floats(0.0, 1.0),
        loss=_LOSSES,
        measure=_MEASURES,
    )
    def test_zero_one_spectrum_is_the_manifold_case(self, dims, k, loss, measure):
        # d unit-mode losses plus D - d zero-mode losses, bit for bit
        ambient, d = dims
        spectrum = Spectrum.manifold(ambient, d)
        moments = compute_moments(FLOW_MATCHING, k_target(k), loss, measure)
        unit, zero = colored_mode_losses([1.0, 0.0], moments)
        parallel, perpendicular = d * float(unit), (ambient - d) * float(zero)
        got = optimal_loss(moments, spectrum)
        assert _bits(got) == _bits(analytic.OptimalLoss(parallel + perpendicular, parallel, perpendicular))
        total = np.sum(colored_mode_losses(spectrum.eigenvalues, moments))
        assert got.total == pytest.approx(total, rel=1e-12, abs=0.0)
        assert colored_optimal_k(spectrum) == ambient / (ambient + d)

    def test_unit_spectrum_matches_poly(self):
        for D in (1, 4, 9):
            res = loss_at(0.31, Spectrum(np.ones(D)))
            assert res.total == pytest.approx(
                optimal_loss_poly(0.31, DimensionPair(D, D)), abs=1e-12
            )

    def test_single_mode_value(self):
        res = loss_at(0.5, Spectrum(np.array([3.0])))
        assert res.total == pytest.approx(0.40625, abs=1e-12)
        assert (res.parallel, res.perpendicular) == (res.total, 0.0)

    def test_closed_form_total(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            lam = rng.uniform(0.0, 5.0, size=int(rng.integers(1, 10)))
            k = float(rng.uniform(0, 1))
            res = loss_at(k, Spectrum(lam))
            assert res.total == pytest.approx(_colored_total_closed_form(lam, k), abs=1e-10)

    def test_per_mode_losses_non_negative(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            lam = rng.uniform(0.0, 10.0, size=6)
            assert np.all(colored_mode_losses(lam, moments_for_k(float(rng.uniform(0, 1)))) >= -1e-12)

    def test_large_eigenvalue_coefficient_limit(self):
        m = moments_for_k(0.7)
        coeff = colored_mode_coefficients(np.array([1e6]), m)[0]
        assert coeff == pytest.approx(m.phi_alpha / m.alpha_sq, rel=1e-5)

    def test_zero_eigenvalue_matches_perpendicular_coefficient(self):
        m = moments_for_k(0.7)
        _, c_perp = manifold_coefficients(m)
        assert colored_mode_coefficients(np.array([0.0]), m)[0] == pytest.approx(c_perp, abs=1e-14)

    def test_unit_eigenvalue_matches_parallel_coefficient(self):
        m = moments_for_k(0.7)
        c_par, _ = manifold_coefficients(m)
        assert colored_mode_coefficients(np.array([1.0]), m)[0] == pytest.approx(c_par, abs=1e-14)

    def test_optimal_weight_matrix(self):
        rng = np.random.default_rng(53)
        lam = rng.uniform(0.0, 4.0, size=5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        m = moments_for_k(0.6)
        w_star = equilibrium_weight(GaussianSource(q, lam), m)
        np.testing.assert_allclose(w_star, w_star.T, atol=1e-12)
        cov = (q * lam) @ q.T
        np.testing.assert_allclose(w_star @ cov, cov @ w_star, atol=1e-9)
        # the per-mode coefficients on the rank-1 eigenprojectors
        coeffs = colored_mode_coefficients(lam, m)
        np.testing.assert_allclose(w_star, (q * coeffs) @ q.T, atol=1e-12)

    def test_optimal_weight_binary_spectrum_matches_projector_form(self):
        rng = np.random.default_rng(59)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        lam = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        m = moments_for_k(0.8)
        c_par, c_perp = manifold_coefficients(m)
        proj = q[:, :2] @ q[:, :2].T
        expected = c_par * proj + c_perp * (np.eye(6) - proj)
        np.testing.assert_allclose(equilibrium_weight(GaussianSource(q, lam), m), expected, atol=1e-12)

    def test_colored_optimal_k(self):
        # binary spectrum reduces to the dimension-pair formula
        lam = np.concatenate([np.ones(4), np.zeros(12)])
        assert colored_optimal_k(Spectrum(lam)) == pytest.approx(16.0 / 20.0)
        assert colored_optimal_k(Spectrum(np.array([2.0, 1.0, 0.0]))) == pytest.approx(0.5)
        assert colored_optimal_k(Spectrum(np.zeros(5))) == pytest.approx(1.0)

    def test_colored_argmin_matches_closed_form(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            lam = rng.uniform(0.0, 3.0, size=int(rng.integers(1, 8)))
            spec = Spectrum(lam)
            numeric = argmin_k(lambda k: loss_at(k, spec).total, tol=1e-8)
            assert abs(numeric - colored_optimal_k(spec)) < 1e-6

    def test_v_loss_moments_change_the_minimiser(self):
        # with a non-unit weighting the closed form no longer applies;
        # the numeric minimiser is still well-defined and inside [0, 1]
        spectrum = Spectrum.manifold(12, 3)

        def total(k):
            m = compute_moments(
                FLOW_MATCHING, k_target(k), V_TARGET, UNIFORM_MEASURE, quad_nodes=96
            )
            return optimal_loss(m, spectrum).total

        got = argmin_k(total, tol=1e-8)
        assert 0.0 <= got <= 1.0


@st.composite
def _u_loss_problems(draw):
    """A 0/1 spectrum with its d, or a colored one with d None (D <= 64), under
    uniform or logit-normal time, on [0, 1] or a sub-interval."""
    ambient = draw(st.integers(1, 64))
    d = draw(st.none() | st.integers(1, ambient))
    if d is None:
        lam = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=ambient, max_size=ambient)))
    else:
        lam = np.repeat([1.0, 0.0], [d, ambient - d])
    interval = (0.0, 1.0)
    if draw(st.booleans()):
        lo = draw(st.floats(0.0, 0.6))
        interval = (lo, draw(st.floats(lo + 0.05, 1.0)))
    if draw(st.booleans()):
        measure = TimeMeasure(
            "logit_normal", interval, mu=draw(st.floats(-2.0, 2.0)), sigma=draw(st.floats(0.3, 2.0))
        )
    else:
        measure = TimeMeasure(interval=interval)
    return lam, d, measure


class TestULossOptimalK:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(problem=_u_loss_problems())
    def test_matches_the_search_and_clips_to_the_unit_interval(self, problem):
        lam, d, measure = problem

        def total(k):
            moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, measure)
            return float(np.sum(colored_mode_losses(lam, moments)))

        got = u_loss_optimal_k(lam, compute_moments(FLOW_MATCHING, k_target(0.3), U_LOSS, measure))
        assert abs(got - argmin_k(total, tol=1e-8)) <= 1e-7
        # the vertex of the quadratic through three of its values
        l0, lh, l1 = total(0.0), total(0.5), total(1.0)
        curvature = 2.0 * (l0 + l1 - 2.0 * lh)
        vertex = -(l1 - l0 - curvature) / (2.0 * curvature)
        if vertex < -1e-6:
            assert got == 0.0
        elif vertex > 1.0 + 1e-6:
            assert got == 1.0
        if measure.kind == "uniform" and measure.interval == (0.0, 1.0):
            assert abs(got - colored_optimal_k(Spectrum(lam))) <= 1e-13
            if d is not None:
                assert abs(got - lam.size / (lam.size + d)) <= 1e-13

    def test_any_k_target_gives_the_same_k_star(self):
        lam = np.array([2.0, 1.0, 0.5, 0.0])
        measure = TimeMeasure("logit_normal", interval=(0.1, 0.9), mu=-0.8, sigma=0.8)
        ks = {u_loss_optimal_k(lam, compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, measure))
              for k in (0.0, 0.4, 1.0)}
        assert len(ks) == 1
