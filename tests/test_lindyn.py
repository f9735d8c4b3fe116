"""Tests for the linear-model dynamics, equilibrium, and the Monte Carlo oracle."""

import math
import tracemalloc
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    V_TARGET,
    Divergence,
    FlowConfig,
    GaussianSource,
    Spectrum,
    TargetSpec,
    TimeMeasure,
    colored_mode_losses,
    compute_moments,
    decompose,
    equilibrium_weight,
    flow_weight,
    k_target,
    kappa,
    monte_carlo_loss,
    optimal_loss,
    quadratic_loss,
    random_orthonormal_basis,
    run_gradient_flow,
    sample_data,
    sample_t,
    stability_bound,
    stochastic_gradient,
)
from kdiff_lab import lindyn
from kdiff_lab.errors import DimError

from helpers import (
    decompose_reference,
    equilibrium_weight_reference,
    euler_flow_reference,
    exact_gradient_reference,
    monte_carlo_loss_reference,
    monte_carlo_observations_reference,
    quadratic_loss_reference,
    stochastic_flow_reference,
)


def uniform_moments(k):
    return compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)


class TestDecompose:
    def test_identity_weight(self):
        basis = random_orthonormal_basis(8, 3, np.random.default_rng(0))
        proj = basis.projector()
        modes = decompose(np.eye(8), basis)
        np.testing.assert_allclose(modes.parallel, proj, atol=1e-14)
        np.testing.assert_allclose(modes.perpendicular, np.eye(8) - proj, atol=1e-14)

    def test_projector_weight(self):
        basis = random_orthonormal_basis(8, 3, np.random.default_rng(1))
        proj = basis.projector()
        modes = decompose(proj, basis)
        np.testing.assert_allclose(modes.parallel, proj, atol=1e-10)
        np.testing.assert_allclose(modes.perpendicular, 0.0, atol=1e-10)

    def test_reconstruction(self):
        basis = random_orthonormal_basis(10, 4, np.random.default_rng(2))
        weight = np.random.default_rng(3).standard_normal((10, 10))
        modes = decompose(weight, basis)
        np.testing.assert_allclose(modes.total, weight, atol=1e-12)
        # parallel annihilates the complement, perpendicular annihilates the span
        proj = basis.projector()
        np.testing.assert_allclose(modes.parallel @ (np.eye(10) - proj), 0.0, atol=1e-10)
        np.testing.assert_allclose(modes.perpendicular @ proj, 0.0, atol=1e-10)

    def test_dim_mismatch(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(4))
        with pytest.raises(DimError):
            decompose(np.eye(5), basis)


class TestExactGradient:
    """The D x D expected-gradient formula that the flow tests take as their reference."""

    def test_zero_weight_x_target(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(5))
        grad = exact_gradient_reference(np.zeros((6, 6)), basis, uniform_moments(1.0))
        np.testing.assert_allclose(grad, 0.5 * basis.projector(), atol=1e-12)

    def test_zero_weight_epsilon_target(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(6))
        grad = exact_gradient_reference(np.zeros((6, 6)), basis, uniform_moments(0.0))
        np.testing.assert_allclose(grad, -0.5 * np.eye(6), atol=1e-12)

    def test_vanishes_at_equilibrium(self):
        rng = np.random.default_rng(7)
        measures = [
            UNIFORM_MEASURE,
            TimeMeasure("logit_normal", mu=0.0, sigma=1.0),
            TimeMeasure("logit_normal", mu=-0.8, sigma=0.8),
        ]
        for _ in range(50):
            d = int(rng.integers(1, 7))
            ambient = int(rng.integers(d, 13))
            k = float(rng.uniform(0, 1))
            measure = measures[rng.integers(len(measures))]
            moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, measure, quad_nodes=96)
            basis = random_orthonormal_basis(ambient, d, rng)
            w_star = equilibrium_weight(basis, moments)
            grad = exact_gradient_reference(w_star, basis, moments)
            assert np.max(np.abs(grad)) < 1e-10


class TestStochasticGradient:
    def test_unbiased_for_exact_gradient(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(8))
        rng = np.random.default_rng(9)
        weight = rng.standard_normal((4, 4)) * 0.3
        moments = uniform_moments(0.7)
        exact = exact_gradient_reference(weight, basis, moments)
        chunks = []
        for _ in range(100):
            x = basis.eigenvectors @ rng.standard_normal((2, 10_000))
            x = x.T
            noise = rng.standard_normal((10_000, 4))
            t = rng.random(10_000)
            chunks.append(stochastic_gradient(weight, x, noise, t, target=0.7))
        chunks = np.asarray(chunks)
        mean = chunks.mean(axis=0)
        se = chunks.std(axis=0, ddof=1) / np.sqrt(len(chunks))
        dist = np.linalg.norm(mean - exact)
        assert dist < 3.0 * np.linalg.norm(se)

    def test_endpoint_sample_formula(self):
        # x-target at t=1: sigma=0 and psi=0, so the noise drops out entirely
        # and the per-sample gradient is -(W x - x) x^T
        rng = np.random.default_rng(10)
        weight = rng.standard_normal((3, 3))
        x = rng.standard_normal((1, 3))
        noise = rng.standard_normal((1, 3))
        got = stochastic_gradient(weight, x, noise, np.array([1.0]), target=1.0)
        expected = -((x @ weight.T - x).T @ x)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_zero_inputs_give_zero(self):
        got = stochastic_gradient(
            np.eye(3), np.zeros((2, 3)), np.zeros((2, 3)), np.array([0.2, 0.6]), target=0.5
        )
        np.testing.assert_array_equal(got, np.zeros((3, 3)))

    @pytest.mark.parametrize("shape", [(5, 5), (4, 5), (3, 3), (4,), (4, 4, 1)])
    def test_weight_must_be_d_by_d(self, shape):
        # D is the width of the samples, 4 here; three samples, so (3, 3) matches only their count
        x, noise = np.ones((3, 4)), np.ones((3, 4))
        with pytest.raises(DimError, match=rf"^weight shape \({shape[0]},.* does not match ambient dimension 4$"):
            stochastic_gradient(np.ones(shape), x, noise, np.full(3, 0.5))


class TestQuadraticLoss:
    def test_matches_optimal_loss_at_equilibrium(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            ambient = int(rng.integers(d, 10))
            k = float(rng.uniform(0, 1))
            moments = uniform_moments(k)
            basis = random_orthonormal_basis(ambient, d, rng)
            w_star = equilibrium_weight(basis, moments)
            expected = optimal_loss(moments, Spectrum.manifold(ambient, d)).total
            assert quadratic_loss(w_star, basis, moments) == pytest.approx(expected, abs=1e-12)

    def test_convex_along_segments(self):
        rng = np.random.default_rng(12)
        basis = random_orthonormal_basis(6, 2, rng)
        moments = uniform_moments(0.4)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            b = rng.standard_normal((6, 6))
            mid = 0.5 * (a + b)
            assert quadratic_loss(mid, basis, moments) <= 0.5 * (
                quadratic_loss(a, basis, moments) + quadratic_loss(b, basis, moments)
            ) + 1e-9

    def test_equilibrium_is_minimum(self):
        rng = np.random.default_rng(13)
        basis = random_orthonormal_basis(5, 2, rng)
        moments = uniform_moments(0.9)
        w_star = equilibrium_weight(basis, moments)
        best = quadratic_loss(w_star, basis, moments)
        for _ in range(20):
            other = w_star + 0.1 * rng.standard_normal((5, 5))
            assert quadratic_loss(other, basis, moments) > best

    @pytest.mark.parametrize("shape", [(5, 5), (4, 5), (4,), (4, 4, 1)])
    def test_weight_must_be_d_by_d(self, shape):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(14))
        with pytest.raises(DimError, match=rf"^weight shape \({shape[0]},.* does not match ambient dimension 4$"):
            quadratic_loss(np.ones(shape), basis, uniform_moments(0.5))


class TestGradientFlow:
    def test_converges_geometrically(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(14))
        config = FlowConfig(step_size=0.5, steps=200, mode="exact")
        traj = run_gradient_flow(np.zeros((6, 6)), basis, config, target=1.0)
        final = traj[-1]
        weight = flow_weight(np.zeros((6, 6)), basis, uniform_moments(1.0), 0.5, final.step)
        np.testing.assert_allclose(weight.total, 0.75 * basis.projector(), atol=1e-6)
        assert final.dist_par < 1e-6 and final.dist_perp < 1e-6

    def test_parallel_contraction_factor(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(15))
        config = FlowConfig(step_size=0.5, steps=60, mode="exact")
        traj = run_gradient_flow(np.zeros((6, 6)), basis, config, target=1.0)
        dists = np.array([rec.dist_par for rec in traj])
        usable = dists > 1e-6
        ratios = dists[1:][usable[:-1]] / dists[:-1][usable[:-1]]
        np.testing.assert_allclose(ratios, 1.0 - 0.5 * (2.0 / 3.0), atol=1e-9)

    def test_perpendicular_contraction_factor(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(16))
        config = FlowConfig(step_size=0.5, steps=60, mode="exact")
        traj = run_gradient_flow(np.eye(6), basis, config, target=0.5)
        dists = np.array([rec.dist_perp for rec in traj])
        usable = dists > 1e-6
        ratios = dists[1:][usable[:-1]] / dists[:-1][usable[:-1]]
        np.testing.assert_allclose(ratios, 1.0 - 0.5 * (1.0 / 3.0), atol=1e-9)

    def test_stationary_at_equilibrium(self):
        basis = random_orthonormal_basis(5, 2, np.random.default_rng(17))
        moments = uniform_moments(0.3)
        w_star = equilibrium_weight(basis, moments)
        config = FlowConfig(step_size=0.5, steps=20, mode="exact")
        traj = run_gradient_flow(w_star, basis, config, target=0.3)
        for rec in traj:
            assert rec.dist_par < 1e-13 and rec.dist_perp < 1e-13
        assert traj[0].loss == pytest.approx(traj[-1].loss, rel=1e-12)

    def test_perpendicular_trajectory_ignores_data_coefficient(self):
        # two targets sharing psi but with different phi
        basis = random_orthonormal_basis(8, 3, np.random.default_rng(18))
        config = FlowConfig(step_size=0.4, steps=50, mode="exact")
        runs, weights = [], []
        for phi in (0.2, 0.8):
            target = TargetSpec(phi, -0.5, name=f"phi{phi}")
            runs.append(run_gradient_flow(np.zeros((8, 8)), basis, config, target=target))
            moments = compute_moments(FLOW_MATCHING, target, U_LOSS, UNIFORM_MEASURE)
            weights.append([flow_weight(np.zeros((8, 8)), basis, moments, 0.4, rec.step) for rec in runs[-1]])
        for rec_a, rec_b, w_a, w_b in zip(*runs, *weights):
            np.testing.assert_array_equal(w_a.perpendicular, w_b.perpendicular)
            assert rec_a.dist_perp == rec_b.dist_perp

    def test_perpendicular_trajectory_ignores_parallel_state(self):
        # starting weights differing (hugely) in their parallel component
        # leave the perpendicular trajectory untouched; splitting the initial
        # matrix leaks ~1e-16 of the perturbation across modes, so the match
        # is tight-allclose rather than bitwise
        basis = random_orthonormal_basis(8, 3, np.random.default_rng(40))
        proj = basis.projector()
        config = FlowConfig(step_size=0.4, steps=40, mode="exact")
        base = np.random.default_rng(41).standard_normal((8, 8))
        shifted = base + 100.0 * np.random.default_rng(42).standard_normal((8, 8)) @ proj
        moments = uniform_moments(0.7)
        for step in range(config.steps + 1):
            weights = [flow_weight(w0, basis, moments, 0.4, step) for w0 in (base, shifted)]
            np.testing.assert_allclose(weights[0].perpendicular, weights[1].perpendicular, atol=1e-12)

    def test_divergence_above_stability_bound(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(19))
        moments = uniform_moments(1.0)
        bad_step = stability_bound(basis, moments) * 1.2
        # the growing mode is caught before the run, so fewer than 10 steps too
        for steps in (200, 3):
            config = FlowConfig(step_size=bad_step, steps=steps, mode="exact")
            with pytest.warns(UserWarning, match="stability"):
                with pytest.raises(Divergence, match="parallel mode grows"):
                    run_gradient_flow(np.eye(4) * 2.0, basis, config, target=1.0)

    def test_unstable_factor_of_a_mode_at_equilibrium_is_harmless(self):
        # phi = -psi puts the parallel equilibrium at exactly 0, so a zero
        # start leaves that mode there for good, whatever its factor
        basis = random_orthonormal_basis(5, 2, np.random.default_rng(44))
        target = TargetSpec(0.5, -0.5, name="balanced")
        config = FlowConfig(step_size=4.0, steps=2000)  # factors -5/3 and -1/3
        with pytest.warns(UserWarning, match="stability"):
            traj = run_gradient_flow(np.zeros((5, 5)), basis, config, target=target)
        assert all(rec.dist_par == 0.0 for rec in traj)
        assert traj[-1].dist_perp < 1e-12 < traj[0].dist_perp

    def test_exact_mode_decomposes_and_evaluates_the_loss_once(self, monkeypatch):
        calls = Counter()
        for name in ("quadratic_loss", "decompose"):

            def counted(*args, _name=name, _original=getattr(lindyn, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(lindyn, name, counted)
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(45))
        moments = uniform_moments(0.7)
        for steps in (1, 40, 5000):
            calls.clear()
            traj = run_gradient_flow(np.eye(6), basis, FlowConfig(0.5, steps), target=0.7)
            weights = [flow_weight(np.eye(6), basis, moments, 0.5, rec.step) for rec in traj[-2:]]
            assert [weight.total.shape for weight in weights] == [(6, 6), (6, 6)]
            assert calls["quadratic_loss"] <= 1 and calls["decompose"] <= 1, (steps, calls)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        dims=st.integers(1, 32).flatmap(lambda D: st.tuples(st.just(D), st.integers(1, D))),
        # None is manifold data; a list gives the first d of its values, with
        # repeats and zeros, to the d columns of the random basis
        eigenvalues=st.none()
        | st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]) | st.floats(0.0, 4.0), min_size=32, max_size=32),
        phi=st.floats(-2.0, 2.0),
        psi=st.floats(-2.0, 2.0),
        step_fraction=st.floats(0.05, 0.95),
        steps=st.integers(1, 100),
        scale=st.floats(0.1, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # D = d: the null space is rounding noise and its loss about 1e-32
    @example(dims=(2, 2), eigenvalues=None, phi=0.0, psi=0.0, step_fraction=0.5, steps=1, scale=1.0, seed=0)
    def test_closed_form_matches_euler_recursion(
        self, dims, eigenvalues, phi, psi, step_fraction, steps, scale, seed
    ):
        ambient, d = dims
        target = TargetSpec(phi, psi, name="linear")
        moments = compute_moments(FLOW_MATCHING, target, U_LOSS, UNIFORM_MEASURE)
        rng = np.random.default_rng(seed)
        source = random_orthonormal_basis(ambient, d, rng)
        if eigenvalues is not None:
            source = GaussianSource(source.eigenvectors, eigenvalues[:d])
        weight0 = scale / math.sqrt(ambient) * rng.standard_normal((ambient, ambient))
        step = step_fraction * stability_bound(source, moments)
        traj = run_gradient_flow(weight0, source, FlowConfig(step, steps), target=target)
        reference = euler_flow_reference(weight0, source, moments, step, steps)
        assert [rec.step for rec in traj] == list(range(steps + 1))
        # relative error means nothing once the loss has fallen to rounding
        # noise, such as a null space of a D = d manifold or a zero target
        abs_tol = 1e-12 * reference[0][0]
        for rec, (loss, dist_par, dist_perp, w_par, w_perp) in zip(traj, reference):
            assert math.isclose(rec.loss, loss, rel_tol=1e-12, abs_tol=abs_tol), (rec.step, rec.loss, loss)
            assert abs(rec.dist_par - dist_par) <= 1e-12
            assert abs(rec.dist_perp - dist_perp) <= 1e-12
            weight = flow_weight(weight0, source, moments, step, rec.step)
            np.testing.assert_allclose(weight.parallel, w_par, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(weight.perpendicular, w_perp, rtol=0.0, atol=1e-12)

    def test_stochastic_divergence_raises(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(46))
        config = FlowConfig(step_size=50.0, steps=200, mode="stochastic")
        with pytest.warns(UserWarning, match="stochastic dynamics will diverge"):
            with pytest.raises(Divergence, match="not finite"):
                run_gradient_flow(
                    np.zeros((6, 6)), basis, config, target=1.0, rng=np.random.default_rng(47)
                )

    def test_stochastic_mode_decreases_loss(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(20))
        config = FlowConfig(step_size=0.1, steps=300, mode="stochastic", batch=512)
        traj = run_gradient_flow(
            np.zeros((6, 6)), basis, config, target=1.0, rng=np.random.default_rng(21)
        )
        assert traj[-1].loss < traj[0].loss
        assert traj[-1].dist_par < traj[0].dist_par

    def test_stochastic_rows_read_back_their_loss_and_distances(self):
        basis = random_orthonormal_basis(8, 3, np.random.default_rng(50))
        config = FlowConfig(step_size=0.2, steps=40, mode="stochastic", batch=64)
        weight0 = 0.1 * np.eye(8)
        traj = run_gradient_flow(weight0, basis, config, target=0.6, rng=np.random.default_rng(51))
        moments = uniform_moments(0.6)
        star = decompose_reference(equilibrium_weight(basis, moments), basis)
        # the run's weights, stepped again from a generator in the same state
        steps = lindyn._stochastic_steps(
            weight0, basis, config, k_target(0.6), U_LOSS, UNIFORM_MEASURE, np.random.default_rng(51)
        )
        assert len(traj) == 41
        for rec, (step, weight) in zip(traj, steps, strict=True):
            assert rec.step == step
            assert rec.loss == quadratic_loss(weight, basis, moments)
            # the rows measure W V - W* V and (W - c(0) I)(I - V V^T), with no projector
            modes = decompose_reference(weight, basis)
            assert rec.dist_par == pytest.approx(np.linalg.norm(modes.parallel - star.parallel), rel=0.0, abs=1e-12)
            assert rec.dist_perp == pytest.approx(
                np.linalg.norm(modes.perpendicular - star.perpendicular), rel=0.0, abs=1e-12
            )

    def test_stochastic_trajectory_keeps_no_weight(self):
        basis = random_orthonormal_basis(64, 4, np.random.default_rng(52))
        config = FlowConfig(step_size=0.5, steps=300, mode="stochastic", batch=256)
        tracemalloc.start()
        try:
            traj = run_gradient_flow(
                np.zeros((64, 64)), basis, config, target=1.0, rng=np.random.default_rng(53)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # rows that kept one 64 x 64 weight each peaked at 10.6 MB, two each at 20.6 MB;
        # a row now holds four numbers
        assert len(traj) == 301 and peak < 3 * 2**20, peak

    def test_stochastic_rows_measure_the_weights_of_a_loop_that_keeps_them(self):
        basis = random_orthonormal_basis(5, 2, np.random.default_rng(54))
        # past 1000 steps the rows are log-spaced, so the run skips unrecorded steps
        config = FlowConfig(step_size=0.3, steps=1100, mode="stochastic", batch=16)
        weight0 = 0.2 * np.random.default_rng(55).standard_normal((5, 5))
        traj = run_gradient_flow(weight0, basis, config, target=0.7, rng=np.random.default_rng(56))
        reference = stochastic_flow_reference(weight0, basis, config, 0.7, np.random.default_rng(56))
        moments = uniform_moments(0.7)
        assert traj[-1].step == 1100 and len(traj) < 1101
        for rec in traj:
            # a row's loss is that of the stepped W itself
            assert rec.loss == quadratic_loss(reference[rec.step], basis, moments), rec.step

    def test_stochastic_rows_never_draw_from_the_callers_generator(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(61))
        config = FlowConfig(step_size=0.3, steps=25, mode="stochastic", batch=16)
        rng, reference_rng = np.random.default_rng(62), np.random.default_rng(62)
        run_gradient_flow(np.zeros((6, 6)), basis, config, target=0.6, rng=rng)
        stochastic_flow_reference(np.zeros((6, 6)), basis, config, 0.6, reference_rng)
        # the run draws what the loop that keeps its weights draws, and no more
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("step_size", [0.0, -0.5, math.nan, math.inf])
    def test_config_rejects_a_step_that_is_not_positive_and_finite(self, step_size):
        # NaN compares false with every bound: the exact flow would give rows of loss nan and no Divergence
        with pytest.raises(ValueError, match="step_size must be positive and finite"):
            FlowConfig(step_size=step_size, steps=10)

    @pytest.mark.parametrize("step", [2.5, -1])
    def test_flow_weight_rejects_a_step_that_is_not_a_non_negative_integer(self, step):
        # at 2.5 the negative factor of this stable step size gave a complex weight, at -1 a weight
        # extrapolated backwards
        source = random_orthonormal_basis(6, 2, np.random.default_rng(0))
        moments = uniform_moments(0.8)
        assert 2.4 < stability_bound(source, moments)
        weight0 = np.random.default_rng(1).standard_normal((6, 6))
        with pytest.raises(ValueError, match=rf"^step must be a non-negative integer, got {step}$"):
            flow_weight(weight0, source, moments, 2.4, step)
        # a numpy integer step is an integer
        np.testing.assert_array_equal(flow_weight(weight0, source, moments, 2.4, np.int64(3)).total,
                                      flow_weight(weight0, source, moments, 2.4, 3).total)

    def test_flow_weight_rejects_a_nan_step(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(24))
        with pytest.raises(Divergence, match="parallel mode grows by a factor nan"):
            flow_weight(np.eye(4), basis, uniform_moments(0.5), math.nan, 3)

    def test_records_start_at_step_zero(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(22))
        config = FlowConfig(step_size=0.5, steps=5, mode="exact")
        traj = run_gradient_flow(np.zeros((4, 4)), basis, config, target=1.0)
        assert [rec.step for rec in traj] == list(range(6))

    def test_long_runs_are_log_spaced(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(23))
        config = FlowConfig(step_size=0.5, steps=5000, mode="exact")
        traj = run_gradient_flow(np.zeros((4, 4)), basis, config, target=1.0)
        assert len(traj) < 1200
        assert traj[0].step == 0 and traj[-1].step == 5000


def _spectral_source(dims, eigenvalues, rng):
    """d orthonormal columns in R^D with the first d of the given eigenvalues, or unit ones."""
    ambient, d = dims
    source = random_orthonormal_basis(ambient, d, rng)
    return source if eigenvalues is None else GaussianSource(source.eigenvectors, eigenvalues[:d])


_DIMS = st.integers(1, 24).flatmap(lambda D: st.tuples(st.just(D), st.integers(1, D)))
# None is manifold data; a list gives repeated and zero eigenvalues
_EIGENVALUES = st.none() | st.lists(
    st.sampled_from([0.0, 0.3, 1.0, 2.5]) | st.floats(0.0, 4.0), min_size=24, max_size=24
)


class TestEigenvectorBlocks:
    """The flow reads Sigma through its eigenvector blocks and factor: no D x D
    projector or covariance, the same numbers as the projector formulas."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(dims=_DIMS, eigenvalues=_EIGENVALUES, k=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_factor_forms_match_projector_formulas(self, dims, eigenvalues, k, seed):
        rng = np.random.default_rng(seed)
        source = _spectral_source(dims, eigenvalues, rng)
        moments = uniform_moments(k)
        weight = rng.standard_normal((dims[0],) * 2)
        got, want = quadratic_loss(weight, source, moments), quadratic_loss_reference(weight, source, moments)
        assert got == pytest.approx(want, rel=1e-12)
        modes, reference = decompose(weight, source), decompose_reference(weight, source)
        scale = np.max(np.abs(weight))
        np.testing.assert_allclose(modes.parallel, reference.parallel, rtol=0.0, atol=1e-12 * scale)
        np.testing.assert_allclose(modes.perpendicular, reference.perpendicular, rtol=0.0, atol=1e-12 * scale)
        # the reference gradient is minus the gradient of the factor-form loss, which is
        # quadratic, so a central difference of unit step is exact up to rounding
        direction = rng.standard_normal(weight.shape)
        plus, minus = (quadratic_loss(weight + sign * direction, source, moments) for sign in (1.0, -1.0))
        slope = -float(np.sum(exact_gradient_reference(weight, source, moments) * direction))
        assert math.isclose(0.5 * (plus - minus), slope, rel_tol=1e-9, abs_tol=1e-10 * (abs(plus) + abs(minus)))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        dims=_DIMS,
        eigenvalues=_EIGENVALUES,
        phi=st.floats(-2.0, 2.0),
        psi=st.floats(-2.0, 2.0),
        step_fraction=st.floats(0.05, 0.95),
        steps=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_rows_are_rotation_invariant(self, dims, eigenvalues, phi, psi, step_fraction, steps, seed):
        target = TargetSpec(phi, psi, name="linear")
        moments = compute_moments(FLOW_MATCHING, target, U_LOSS, UNIFORM_MEASURE)
        rng = np.random.default_rng(seed)
        source = _spectral_source(dims, eigenvalues, rng)
        rotation, _ = np.linalg.qr(rng.standard_normal((dims[0],) * 2))
        rotated = GaussianSource(rotation @ source.eigenvectors, source.eigenvalues)
        weight0 = rng.standard_normal((dims[0],) * 2) / math.sqrt(dims[0])
        config = FlowConfig(step_fraction * stability_bound(source, moments), steps)
        traj = run_gradient_flow(weight0, source, config, target=target)
        turned = run_gradient_flow(rotation @ weight0 @ rotation.T, rotated, config, target=target)
        # a mode at its equilibrium has a distance of rounding noise in either frame
        abs_tol = 1e-12 * (traj[0].loss + traj[0].dist_par + traj[0].dist_perp)
        for got, want in zip(turned, traj):
            for name in ("loss", "dist_par", "dist_perp"):
                a, b = getattr(got, name), getattr(want, name)
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=abs_tol), (name, got.step, a, b)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(dims=_DIMS, eigenvalues=_EIGENVALUES, k=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_equilibrium_weight_matches_projector_sum(self, dims, eigenvalues, k, seed):
        source = _spectral_source(dims, eigenvalues, np.random.default_rng(seed))
        moments = uniform_moments(k)
        got, want = equilibrium_weight(source, moments), equilibrium_weight_reference(source, moments)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(want))))

    def test_exact_row_weights_take_the_c_librarys_pow(self):
        # 40 distinct factors: numpy's array power takes SIMD kernels on some CPUs, whose
        # last bits differ from the C library's pow, and so would the rows' weights
        rng = np.random.default_rng(66)
        lam = np.linspace(0.05, 2.0, 40)
        source = GaussianSource(random_orthonormal_basis(64, 40, rng).eigenvectors, lam)
        moments = uniform_moments(0.7)
        weight0 = rng.standard_normal((64, 64)) / 8.0
        step_size = 0.5 * stability_bound(source, moments)
        traj = run_gradient_flow(weight0, source, FlowConfig(step_size, 199), target=0.7)
        vectors, _, star, null = lindyn._support(source, moments)
        wv = weight0 @ vectors
        rates = np.append(lam * moments.alpha_sq + moments.sigma_sq, moments.sigma_sq)
        factors = (1.0 - step_size * rates).tolist()
        assert len(traj) == 200
        for rec in traj:
            *powers, b = (math.pow(factor, rec.step) for factor in factors)
            parallel = (star + np.array(powers) * (wv - star)) @ vectors.T
            perpendicular = lindyn._null_offset(b * weight0, b * wv, vectors, (b - 1.0) * null)
            weight = flow_weight(weight0, source, moments, step_size, rec.step)
            np.testing.assert_array_equal(weight.parallel, parallel, err_msg=f"step {rec.step}")
            np.testing.assert_array_equal(weight.perpendicular, perpendicular, err_msg=f"step {rec.step}")

    def test_exact_flow_peak_memory(self):
        source = random_orthonormal_basis(256, 16, np.random.default_rng(63))
        weight0 = np.zeros((256, 256))
        tracemalloc.start()
        try:
            traj = run_gradient_flow(weight0, source, FlowConfig(step_size=0.5, steps=150), target=0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # per-eigenspace D x D projectors and offsets peaked at 5.0 MB; now the
        # run's copy of W0 and the null space's offset, 0.5 MB each, peak at 1.13 MB
        assert len(traj) == 151 and peak < 1.5 * 2**20, peak

    def test_loss_and_decompose_make_no_square_temporary(self):
        source = random_orthonormal_basis(256, 16, np.random.default_rng(64))
        weight = np.random.default_rng(65).standard_normal((256, 256))
        moments = uniform_moments(0.7)

        def peak(call) -> float:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1] / weight.nbytes
            finally:
                tracemalloc.stop()

        # D x r products only besides the returned D x D arrays: 0.06 and 3.06 of
        # a D x D array, decompose returning its two parts and a copy of the weight;
        # W Sigma with Sigma = F F^T took 2.0 in quadratic_loss
        assert peak(lambda: quadratic_loss(weight, source, moments)) < 0.25
        assert peak(lambda: decompose(weight, source)) < 3.25


class TestExactIsTheStochasticMean:
    """The batch gradient is affine in W, and its coefficients are drawn
    independently of W, so the mean of the stochastic weights follows the
    exact recursion: E W_{i+1} = E W_i + step * G(E W_i), G the expected gradient."""

    RUNS = 256
    FAMILY_ALPHA = 0.01  # chance that any one entry of any row leaves its band by chance

    @pytest.mark.parametrize(
        "source, k, measure",
        [
            pytest.param(random_orthonormal_basis(5, 2, np.random.default_rng(70)), 0.7, UNIFORM_MEASURE, id="manifold"),
            pytest.param(
                GaussianSource(np.eye(4)[:, :3], [2.0, 0.5, 0.5]), 0.4,
                TimeMeasure("logit_normal", mu=-0.4, sigma=0.9), id="spectrum-logit-normal",
            ),
        ],
    )
    def test_mean_weight_follows_the_exact_trajectory(self, source, k, measure):
        dim = source.ambient_dim
        weight0 = 0.5 * np.random.default_rng(71).standard_normal((dim, dim))
        config = FlowConfig(step_size=0.3, steps=25, mode="stochastic", batch=8)

        def exact(target):
            moments = compute_moments(FLOW_MATCHING, k_target(target), U_LOSS, measure)
            steps = range(config.steps + 1)
            return np.array([flow_weight(weight0, source, moments, config.step_size, i).total for i in steps])

        weights = np.array([
            [weight for _, weight in lindyn._stochastic_steps(
                weight0, source, config, k_target(k), U_LOSS, measure, np.random.default_rng([72, run])
            )]
            for run in range(self.RUNS)
        ])
        mean = weights.mean(axis=0)
        se = weights.std(axis=0, ddof=1) / math.sqrt(self.RUNS)
        # two-sided CLT band per entry, Bonferroni over every entry of every row after
        # step 0; the absolute term absorbs rounding where the spread is 0 (step 0)
        z = NormalDist().inv_cdf(1.0 - self.FAMILY_ALPHA / (2 * se[1:].size))
        band = z * se + 1e-12
        deviation = np.abs(mean - exact(k))
        assert np.all(deviation <= band), np.max(deviation / band)
        # the band is narrow enough to tell a neighbouring target's trajectory apart
        assert np.any(np.abs(mean - exact(k + 0.1)) > band)


class TestMonteCarloLoss:
    def test_matches_low_dim_value(self):
        basis = random_orthonormal_basis(2, 1, np.random.default_rng(24))
        moments = uniform_moments(0.5)
        w_star = equilibrium_weight(basis, moments)
        estimate, se = monte_carlo_loss(
            w_star, basis, 0.5, 400_000, np.random.default_rng(25)
        )
        assert abs(estimate - 0.28125) < 3.0 * se
        assert se < 5e-3

    def test_matches_dense_x_prediction_value(self):
        basis = random_orthonormal_basis(3, 3, np.random.default_rng(26))
        moments = uniform_moments(1.0)
        w_star = equilibrium_weight(basis, moments)
        estimate, se = monte_carlo_loss(w_star, basis, 1.0, 400_000, np.random.default_rng(27))
        assert abs(estimate - 5.0 * 3.0 / 16.0) < 3.0 * se

    def test_suboptimal_weight_has_larger_loss(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(28))
        moments = uniform_moments(0.5)
        w_star = equilibrium_weight(basis, moments)
        optimum = optimal_loss(moments, Spectrum.manifold(4, 2)).total
        perturbed = w_star + 0.2 * np.random.default_rng(29).standard_normal((4, 4))
        estimate, se = monte_carlo_loss(perturbed, basis, 0.5, 200_000, np.random.default_rng(30))
        assert estimate - optimum > 3.0 * se

    def test_matches_quadratic_loss_away_from_equilibrium(self):
        rng = np.random.default_rng(34)
        basis = random_orthonormal_basis(5, 2, rng)
        moments = uniform_moments(0.4)
        weight = rng.standard_normal((5, 5)) * 0.5
        expected = quadratic_loss(weight, basis, moments)
        estimate, se = monte_carlo_loss(weight, basis, 0.4, 400_000, np.random.default_rng(35))
        assert abs(estimate - expected) < 3.0 * se

    @pytest.mark.parametrize(
        "loss, measure, n_samples",
        [
            (U_LOSS, UNIFORM_MEASURE, 1802),
            (U_LOSS, UNIFORM_MEASURE, 5002),
            (V_TARGET, TimeMeasure("logit_normal", mu=-0.5, sigma=1.0), 4402),
        ],
        ids=["u-one-block", "u-blocks", "v-logit-normal"],
    )
    def test_antithetic_pair_mean_matches_two_residuals(self, loss, measure, n_samples):
        rng = np.random.default_rng(48)
        basis = random_orthonormal_basis(7, 3, rng)
        weight = rng.standard_normal((7, 7))
        target, clamp = k_target(0.3), 0.05
        estimate, se = monte_carlo_loss(
            weight, basis, target, n_samples, np.random.default_rng(49),
            loss=loss, measure=measure, clamp_floor=clamp,
        )
        # the same draws in the same order, 1024 pairs at a time, each pair's two residuals in full
        draws = np.random.default_rng(49)
        values = []
        for start in range(0, n_samples // 2, 1024):
            m = min(1024, n_samples // 2 - start)
            t = sample_t(measure, draws, size=m)
            x = sample_data(basis, m, draws)
            noise = draws.standard_normal((m, 7))
            a, s = t[:, None], (1 - t)[:, None]
            p, q = target.phi, target.psi
            halves = [
                0.5 * kappa(target, loss, t, clamp) ** 2 * np.sum(r * r, axis=1)
                for r in (
                    (a * x + s * noise) @ weight.T - (p * x + q * noise),
                    (a * x - s * noise) @ weight.T - (p * x - q * noise),
                )
            ]
            values.append(0.5 * (halves[0] + halves[1]))
        values = np.concatenate(values)
        assert math.isclose(estimate, np.mean(values), rel_tol=1e-12)
        assert math.isclose(se, np.std(values, ddof=1) / math.sqrt(values.size), rel_tol=1e-12)

    def test_sample_count_validation(self):
        # a standard error needs two observations; one used to give a NaN
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(36))
        for n_samples in (1, 2, 3):
            with pytest.raises(ValueError, match=f"at least 4 samples .*got {n_samples}"):
                monte_carlo_loss(np.eye(4), basis, 0.5, n_samples, np.random.default_rng(37))
        estimate, se = monte_carlo_loss(np.eye(4), basis, 0.5, 4, np.random.default_rng(37))
        assert math.isfinite(estimate) and math.isfinite(se) and se > 0.0

    @pytest.mark.parametrize("shape", [(5, 5), (4, 5), (4,)])
    def test_weight_must_be_d_by_d(self, shape):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(38))
        with pytest.raises(DimError, match="does not match ambient dimension 4"):
            monte_carlo_loss(np.ones(shape), basis, 0.5, 64, np.random.default_rng(39))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_weight_must_be_finite(self, value):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(38))
        weight = np.eye(4)
        weight[1, 2] = value
        rng = np.random.default_rng(39)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^weight must be finite$"):
            monte_carlo_loss(weight, basis, 0.5, 64, rng)
        assert rng.bit_generator.state == state  # rejected before any draw

    def test_odd_sample_count_with_pairs_drops_one_draw(self):
        basis = random_orthonormal_basis(5, 2, np.random.default_rng(40))
        odd = monte_carlo_loss(np.eye(5), basis, 0.5, 2049, np.random.default_rng(41))
        assert odd == monte_carlo_loss(np.eye(5), basis, 0.5, 2048, np.random.default_rng(41))


class TestMonteCarloBlocks:
    """The oracle against a plain per-block loop, compared with ``==``."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        # BLAS kernels for few rows round differently at the larger D, so weight those
        dims=st.one_of(st.integers(1, 32), st.integers(24, 32)).flatmap(
            lambda D: st.tuples(st.just(D), st.integers(1, D))
        ),
        # sample counts below, at and just above multiples of the 1024-pair block
        n_samples=st.one_of(
            st.integers(4, 5000),
            st.integers(4, 50_000),
            st.builds(lambda blocks, extra: 2048 * blocks + extra, st.integers(1, 5), st.integers(-3, 80)),
        ),
        v_loss=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_bit_identical_to_per_block_loop(self, dims, n_samples, v_loss, seed):
        D, d = dims
        rng = np.random.default_rng(seed)
        basis = random_orthonormal_basis(D, d, rng)
        weight = rng.standard_normal((D, D))
        target = k_target(float(rng.uniform()))
        options = dict(loss=U_LOSS, measure=UNIFORM_MEASURE, clamp_floor=None)
        if v_loss:
            measure = TimeMeasure("logit_normal", mu=-0.4, sigma=0.9)
            options.update(loss=V_TARGET, measure=measure, clamp_floor=0.05)
        # a mean hides last-bit differences of single observations, so compare those too
        observations = [
            oracle(weight, basis, target, n_samples // 2, np.random.default_rng(seed + 1), **options)
            for oracle in (lindyn._loss_observations, monte_carlo_observations_reference)
        ]
        assert np.array_equal(observations[0], observations[1])
        got = monte_carlo_loss(weight, basis, target, n_samples, np.random.default_rng(seed + 1), **options)
        want = monte_carlo_loss_reference(weight, basis, target, n_samples, np.random.default_rng(seed + 1), **options)
        assert got == want

    @pytest.mark.parametrize("case", [(2, 1, 0.5), (8, 2, 0.25), (16, 4, 0.75), (32, 4, 1.0), (32, 16, 0.0)])
    def test_bench_oracle_cases_are_bit_identical(self, case):
        D, d, k = case
        results = []
        for oracle in (monte_carlo_loss, monte_carlo_loss_reference):
            rng = np.random.default_rng(3000)
            basis = random_orthonormal_basis(D, d, rng)
            weight = equilibrium_weight(basis, uniform_moments(k))
            results.append(oracle(weight, basis, k, 1 << 18, rng))
        assert results[0] == results[1]

    def test_working_set_is_bounded(self):
        # drawing 32768 pairs at a time peaked at 5.5 MB at D = 32, d = 4 (43.8 MB
        # when each chunk was evaluated in one piece) and at 70.5 MB at D = d = 128
        for dims, bound_mb in (((32, 4), 8), ((128, 128), 10)):
            basis = random_orthonormal_basis(*dims, np.random.default_rng(44))
            weight = equilibrium_weight(basis, uniform_moments(0.5))
            tracemalloc.start()
            try:
                monte_carlo_loss(weight, basis, 0.5, 1 << 18, np.random.default_rng(45))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound_mb * 2**20, (dims, peak)


class TestSpectralSource:
    """The flow and the oracle on a general spectrum: colored theory against simulation."""

    def test_oracle_matches_colored_mode_losses_at_the_equilibrium(self):
        rng = np.random.default_rng(60)
        for case in range(5):
            ambient = int(rng.integers(2, 9))
            rank = int(rng.integers(1, ambient + 1))
            # repeated and zero eigenvalues on random orthonormal columns
            eigenvalues = rng.choice([0.0, 0.5, 1.0, 3.0, float(rng.uniform(0.1, 4.0))], size=rank)
            source = GaussianSource(random_orthonormal_basis(ambient, rank, rng).eigenvectors, eigenvalues)
            k = float(rng.uniform(0.0, 1.0))
            moments = uniform_moments(k)
            w_star = equilibrium_weight(source, moments)
            # the zero modes outside the eigenvectors' span count too
            lam = np.concatenate([source.eigenvalues, np.zeros(ambient - source.eigenvalues.size)])
            expected = float(np.sum(colored_mode_losses(lam, moments)))
            assert quadratic_loss(w_star, source, moments) == pytest.approx(expected, rel=1e-12, abs=1e-14)
            assert np.max(np.abs(exact_gradient_reference(w_star, source, moments))) < 1e-12
            estimate, se = monte_carlo_loss(w_star, source, k, 1 << 18, np.random.default_rng(61 + case))
            assert abs(estimate - expected) < 3.0 * se, (case, estimate, expected, se)

    def test_zero_one_spectrum_on_a_full_basis_is_the_manifold(self):
        rng = np.random.default_rng(62)
        basis = random_orthonormal_basis(7, 3, rng)
        full, _ = np.linalg.qr(np.hstack([basis.eigenvectors, rng.standard_normal((7, 4))]))
        source = GaussianSource(full, np.repeat([1.0, 0.0], [3, 4]))
        moments = uniform_moments(0.6)
        np.testing.assert_allclose(
            equilibrium_weight(source, moments), equilibrium_weight(basis, moments), rtol=0.0, atol=1e-12
        )
        weight0 = rng.standard_normal((7, 7))
        config = FlowConfig(step_size=0.7, steps=30)
        for got, want in zip(*(run_gradient_flow(weight0, s, config, target=0.6) for s in (source, basis))):
            assert got.step == want.step
            for name in ("loss", "dist_par", "dist_perp"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=0.0, abs=1e-12)
        for step in range(config.steps + 1):
            got, want = (flow_weight(weight0, s, moments, config.step_size, step) for s in (source, basis))
            np.testing.assert_allclose(got.parallel, want.parallel, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got.perpendicular, want.perpendicular, rtol=0.0, atol=1e-12)

    def test_stability_bound_uses_the_largest_eigenvalue(self):
        source = GaussianSource.from_spectrum([3.0, 1.0, 0.0])
        moments = uniform_moments(1.0)
        # 2 / (3 alpha_sq + sigma_sq) with alpha_sq = sigma_sq = 1/3
        assert stability_bound(source, moments) == pytest.approx(1.5, rel=1e-14)
        # stable for the unit eigenvalue's bound of 3, not for the largest's
        with pytest.warns(UserWarning, match="stability bound 1.5"):
            with pytest.raises(Divergence, match="parallel mode grows by a factor 1.4 "):
                run_gradient_flow(np.zeros((3, 3)), source, FlowConfig(step_size=1.8, steps=10), target=1.0)

    @pytest.mark.parametrize(
        "source",
        [
            # every eigenvalue distinct: one eigenspace projector at a time, none kept
            GaussianSource.from_spectrum(np.linspace(0.01, 2.0, 128)),
            # rows that kept their weight's two modes held 3.1 MB here
            random_orthonormal_basis(256, 16, np.random.default_rng(63)),
        ],
        ids=["D128-distinct", "manifold-D256"],
    )
    def test_exact_flow_holds_quadratic_memory(self, source):
        weight0 = np.zeros((source.ambient_dim, source.ambient_dim))
        tracemalloc.start()
        try:
            traj = run_gradient_flow(weight0, source, FlowConfig(step_size=0.5, steps=1000), target=0.8)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 1001 and held < 2 * 2**20, held
