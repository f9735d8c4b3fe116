"""Tests for the Euler/Heun samplers: exactness, convergence orders, manifold behaviour."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    KParam,
    NonFiniteState,
    PureLinear,
    SampleRun,
    compute_moments,
    equilibrium_weight,
    euler_step,
    heun_step,
    integrate,
    k_target,
    random_orthonormal_basis,
)


class _ConstantVelocity:
    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)

    @property
    def dim(self):
        return self.value.shape[-1]

    def forward(self, z, t):
        return np.broadcast_to(self.value, np.shape(z)).copy()


class _TimeLinearVelocity:
    """State-independent field a + b t (exactly integrated by the trapezoid rule)."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)

    @property
    def dim(self):
        return self.a.shape[-1]

    def forward(self, z, t):
        t = np.broadcast_to(np.asarray(t, dtype=np.float64), (len(z),))
        return self.a + t[:, None] * self.b


class _BlowupNet:
    dim = 2

    def forward(self, z, t):
        return np.full_like(np.asarray(z, dtype=float), np.inf)


def optimal_linear_net(basis, k):
    moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)
    return PureLinear(equilibrium_weight(basis, moments))


class TestSteps:
    def test_constant_field_single_euler_step(self):
        net = _ConstantVelocity(np.array([2.0, -1.0]))
        z = euler_step(np.zeros((1, 2)), 0.0, 1.0, net, kparam=None)
        np.testing.assert_array_equal(z, [[2.0, -1.0]])

    def test_zero_velocity_keeps_state(self):
        net = _ConstantVelocity(np.zeros(3))
        z0 = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(euler_step(z0, 0.2, 0.5, net, None), z0)
        np.testing.assert_array_equal(heun_step(z0, 0.2, 0.5, net, None), z0)

    def test_constant_field_heun_equals_euler(self):
        net = _ConstantVelocity(np.array([0.7, 0.3]))
        z0 = np.ones((2, 2))
        np.testing.assert_array_equal(
            euler_step(z0, 0.0, 0.25, net, None), heun_step(z0, 0.0, 0.25, net, None)
        )

    def test_heun_exact_for_time_linear_fields(self):
        # integral of a + b t over [0,1] is a + b/2, matched stepwise by Heun
        net = _TimeLinearVelocity(np.array([1.0, -2.0]), np.array([4.0, 0.5]))
        run = SampleRun(steps=7, solver="heun")
        z = integrate(run, net, None, np.zeros((1, 2)))
        np.testing.assert_allclose(z, [[1.0 + 2.0, -2.0 + 0.25]], atol=1e-12)

    def test_time_ordering_enforced(self):
        net = _ConstantVelocity(np.zeros(2))
        with pytest.raises(ValueError):
            euler_step(np.zeros((1, 2)), 0.5, 0.5, net, None)

    def test_non_finite_state_raises(self):
        with pytest.raises(NonFiniteState):
            euler_step(np.zeros((1, 2)), 0.0, 1.0, _BlowupNet(), None)


class TestSampleRun:
    def test_grid_is_uniform(self):
        run = SampleRun(steps=4)
        np.testing.assert_allclose(run.time_grid(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_custom_grid_validation(self):
        with pytest.raises(ValueError):
            SampleRun(solver="rk4")
        for floor in (0.0, 1.0, 5.0):
            with pytest.raises(ValueError, match="clamp_floor"):
                SampleRun(clamp_floor=floor)


class TestConvergenceOrders:
    def _self_convergence_ratio(self, solver, n):
        rng = np.random.default_rng(1)
        weight = 0.4 * rng.standard_normal((4, 4))
        net = PureLinear(weight)
        kparam = KParam.constant(0.7, trainable=False)
        z0 = rng.standard_normal((8, 4))
        outs = {}
        for steps in (n, 2 * n, 4 * n):
            outs[steps] = integrate(SampleRun(steps=steps, solver=solver), net, kparam, z0)
        err_coarse = np.linalg.norm(outs[n] - outs[2 * n])
        err_fine = np.linalg.norm(outs[2 * n] - outs[4 * n])
        return err_coarse / err_fine

    def test_euler_first_order(self):
        assert 1.7 <= self._self_convergence_ratio("euler", 25) <= 2.3

    def test_heun_second_order(self):
        assert 3.5 <= self._self_convergence_ratio("heun", 25) <= 4.5


class TestKHalfEquivalence:
    def test_bitwise_match_with_plain_velocity_prediction(self):
        # at k = 0.5 the conversion is exactly a doubling, so a target-space
        # net W and a velocity net 2W integrate identically, bit for bit
        rng = np.random.default_rng(2)
        weight = 0.3 * rng.standard_normal((5, 5))
        z0 = rng.standard_normal((16, 5))
        for solver in ("euler", "heun"):
            run = SampleRun(steps=13, solver=solver)
            via_k = integrate(run, PureLinear(weight), KParam.constant(0.5), z0)
            via_v = integrate(run, PureLinear(2.0 * weight), None, z0)
            np.testing.assert_array_equal(via_k, via_v)


class TestRunSampler:
    def test_single_step_perfect_oracle_recovers_data(self):
        # with integer-valued data and noise the one-step update
        # z + (x - z) is exact in floating point
        rng = np.random.default_rng(3)
        x = rng.integers(-5, 6, size=(6, 4)).astype(float)

        class OracleVelocity:
            dim = 4

            def forward(self, z, t):
                return x - np.asarray(z)

        run = SampleRun(steps=1, solver="euler")
        noise = rng.integers(-5, 6, size=(6, 4)).astype(float)
        out = integrate(run, OracleVelocity(), None, noise)
        np.testing.assert_array_equal(out, x)

    def test_zero_samples(self):
        basis = random_orthonormal_basis(4, 2, np.random.default_rng(4))
        net = optimal_linear_net(basis, 0.5)
        for solver in ("euler", "heun"):
            out = integrate(SampleRun(steps=5, solver=solver), net, 0.5, np.empty((0, 4)))
            assert out.shape == (0, 4)

    def test_off_manifold_energy_shrinks(self):
        basis = random_orthonormal_basis(6, 1, np.random.default_rng(6))
        net = optimal_linear_net(basis, 1.0)
        rng = np.random.default_rng(7)
        z0 = rng.standard_normal((256, 6))
        z1 = integrate(SampleRun(steps=50, solver="euler"), net, 1.0, z0)
        proj = basis.projector()

        def off_fraction(z):
            perp = z - z @ proj
            return np.sum(perp * perp) / np.sum(z * z)

        assert off_fraction(z1) < off_fraction(z0)

    def test_matches_composed_linear_map(self):
        # every stage is affine in z, so the whole sampler is one matrix;
        # compose it analytically and compare
        basis = random_orthonormal_basis(5, 2, np.random.default_rng(8))
        k = 0.55
        net = optimal_linear_net(basis, k)
        run = SampleRun(steps=20, solver="heun")
        grid = run.time_grid()
        eye = np.eye(5)

        def stage_matrix(t):
            den = max(k * (1.0 - t) + (1.0 - k) * t, run.clamp_floor)
            return ((1.0 - 2.0 * k) * eye + net.weight) / den

        total = eye
        for t, t_next in zip(grid[:-1], grid[1:]):
            dt = t_next - t
            a_here, a_next = stage_matrix(t), stage_matrix(t_next)
            stage = eye + 0.5 * dt * (a_here + a_next @ (eye + dt * a_here))
            total = stage @ total

        rng = np.random.default_rng(9)
        z0 = rng.standard_normal((64, 5))
        got = integrate(run, net, KParam.constant(k), z0)
        np.testing.assert_allclose(got, z0 @ total.T, atol=1e-10)

    def test_manifold_second_moment_near_unit(self):
        # at k = 0.5 the optimal net has no manifold-parallel action, so the
        # on-manifold second moment of the samples stays at the whitened value
        basis = random_orthonormal_basis(8, 3, np.random.default_rng(10))
        net = optimal_linear_net(basis, 0.5)
        z0 = np.random.default_rng(11).standard_normal((10_000, 8))
        out = integrate(SampleRun(steps=50, solver="heun"), net, 0.5, z0)
        latents = out @ basis.eigenvectors
        second = latents.T @ latents / len(latents)
        assert np.max(np.abs(np.diag(second) - 1.0)) < 0.1

    def test_state_stays_bounded(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(12))
        for k in (0.25, 0.5, 0.9):
            net = optimal_linear_net(basis, k)
            rng = np.random.default_rng(13)
            z = rng.standard_normal((128, 6))
            grid = SampleRun(steps=50, solver="heun").time_grid()
            bound = 10.0 * np.sqrt(6.0)
            for t, t_next in zip(grid[:-1], grid[1:]):
                z = heun_step(z, float(t), float(t_next), net, k)
                assert np.max(np.linalg.norm(z, axis=1)) < bound


_KPARAMS = st.one_of(
    st.none(),
    st.floats(0.0, 1.0),
    st.floats(-3.0, 3.0).map(lambda raw: KParam(np.asarray(raw))),
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6).map(lambda raw: KParam(np.array(raw))),
)


class TestLinearPropagator:
    """A linear net's field is linear in the state, so integrating the D x D
    identity gives the transposed propagator G^T of the whole run."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(1, 6),
        steps=st.integers(1, 40),
        solver=st.sampled_from(["euler", "heun"]),
        kparam=_KPARAMS,
        clamp_floor=st.floats(0.05, 0.5),
        scale=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # k = 1 keeps the clamp active near t = 1
    @example(dim=4, steps=50, solver="heun", kparam=1.0, clamp_floor=0.05, scale=0.5, seed=0)
    @example(dim=4, steps=50, solver="heun", kparam=1.0, clamp_floor=0.4, scale=0.5, seed=0)
    @example(dim=4, steps=50, solver="euler", kparam=1.0, clamp_floor=0.4, scale=0.5, seed=0)
    def test_matches_integrate(self, dim, steps, solver, kparam, clamp_floor, scale, seed):
        rng = np.random.default_rng(seed)
        net = PureLinear(scale * rng.standard_normal((dim, dim)))
        z0 = rng.standard_normal((7, dim))
        run = SampleRun(steps=steps, solver=solver, clamp_floor=clamp_floor)
        want = integrate(run, net, kparam, z0)
        got = z0 @ integrate(run, net, kparam, np.eye(dim))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("solver", ["euler", "heun"])
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_k_half_equals_doubled_velocity_net(self, dim, solver):
        # k = 0.5 divides (0 I + W) by a denominator of exactly 0.5
        weight = 0.3 * np.random.default_rng(dim).standard_normal((dim, dim))
        run, eye = SampleRun(steps=50, solver=solver), np.eye(dim)
        via_k = integrate(run, PureLinear(weight), KParam.constant(0.5), eye)
        np.testing.assert_array_equal(via_k, integrate(run, PureLinear(2.0 * weight), None, eye))

    @pytest.mark.parametrize("solver, t_bad", [("euler", "0.5"), ("heun", "0.25")])
    def test_non_finite_product_names_the_step(self, solver, t_bad):
        # Heun's predicted slope overflows in the first step, Euler's state in the second
        net = PureLinear(1e200 * np.eye(3))
        run = SampleRun(steps=4, solver=solver)
        message = f"non-finite at t = {t_bad}$"
        with np.errstate(over="ignore", invalid="ignore"):
            for z0 in (np.eye(3), np.ones((2, 3))):
                with pytest.raises(NonFiniteState, match=message):
                    integrate(run, net, None, z0)

    @pytest.mark.parametrize("k", [0.9, 0.3])
    @pytest.mark.parametrize("solver, low, high", [("euler", 1.8, 2.2), ("heun", 3.5, 4.5)])
    def test_order_against_the_exact_flow(self, k, solver, low, high):
        # with constant k and no active clamp the flow is linear with
        # A(t) = M / (k + (1 - 2k) t), so G = expm(M * integral of 1/den)
        from scipy.linalg import expm

        dim = 16
        net = PureLinear(0.4 * np.random.default_rng(14).standard_normal((dim, dim)) / np.sqrt(dim))
        generator = (1.0 - 2.0 * k) * np.eye(dim) + net.weight
        exact = expm(generator * np.log((1.0 - k) / k) / (1.0 - 2.0 * k))
        errors = [
            np.linalg.norm(integrate(SampleRun(steps=n, solver=solver), net, k, np.eye(dim)) - exact.T)
            for n in (50, 100, 200)
        ]
        for coarse, fine in zip(errors[:-1], errors[1:]):
            assert low <= coarse / fine <= high, errors
