"""Tests for the learnable-target trainer: k parameter, networks, gradients, optimizer."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    V_TARGET,
    KParam,
    NonFiniteLoss,
    OptimizerState,
    PureLinear,
    TimeMeasure,
    TrainConfig,
    compute_moments,
    derive_rng,
    equilibrium_weight,
    k_target,
    kappa,
    make_kparam,
    optimizer_step,
    random_orthonormal_basis,
    sample_data,
    sample_t,
    train,
    training_step,
    u_to_v,
)
from kdiff_lab.kdiff import K_PROBES, _sigmoid, _StepBuffers

from helpers import (
    ReplayRNG,
    gradient_check,
    kparam_grad_raw_reference,
    kparam_value_reference,
    random_gradient_instance,
    training_step_reference,
)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


# where exp(-x) overflows: the sigmoid is 0 from just below -709.78
_OVERFLOW_EDGE = -math.log(np.finfo(np.float64).max)


class TestSigmoid:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(x=0.0)
    @example(x=-0.0)
    @example(x=math.inf)
    @example(x=-math.inf)
    @example(x=math.nan)
    @example(x=-math.nan)
    @example(x=5e-324)
    @example(x=-5e-324)
    @example(x=_OVERFLOW_EDGE)
    @example(x=math.nextafter(_OVERFLOW_EDGE, -math.inf))
    @example(x=math.nextafter(_OVERFLOW_EDGE, math.inf))
    @example(x=-745.2)
    def test_equals_expit_bit_for_bit(self, x):
        assert _bits(_sigmoid(x)) == _bits(expit(np.float64(x)))

    @pytest.mark.parametrize("scale", [1.0, 40.0, 800.0])
    def test_kparam_matches_the_expit_reference(self, scale):
        rng = np.random.default_rng(11)
        t = np.concatenate([[0.0, 1.0], rng.random(64)])
        dloss_dk = rng.standard_normal(t.size)
        raws = [np.asarray(v) for v in scale * rng.uniform(-1.0, 1.0, 8)]
        raws += [scale * rng.uniform(-1.0, 1.0, n) for n in (2, 5, 129)]
        raws += [np.asarray(710.5), np.asarray(-710.5), np.array([-800.0, -709.9, 0.0, 709.9, 800.0])]
        for raw in raws:
            param = KParam(raw)
            assert _bits(param.value(t)).tolist() == _bits(kparam_value_reference(param, t)).tolist()
            assert _bits(param.value(0.3)) == _bits(kparam_value_reference(param, 0.3))
            got = param.grad_raw(t, dloss_dk)
            want = kparam_grad_raw_reference(param, t, dloss_dk)
            assert _bits(got).tolist() == _bits(want).tolist()


class TestKParam:
    def test_constant_center(self):
        param = KParam.constant(0.5)
        for t in (0.0, 0.3, 1.0):
            assert param.value(t) == pytest.approx(0.5)

    def test_binned_all_equal_knots(self):
        param = KParam(np.zeros(5))
        t = np.linspace(0, 1, 33)
        np.testing.assert_allclose(param.value(t), 0.5, atol=1e-15)

    def test_binned_interpolates_sigmoid_values(self):
        # knots at t = 0, 0.5, 1 with pre-sigmoid values (0, 0, 40):
        # k(0.75) is halfway between 0.5 and ~1
        param = KParam(np.array([0.0, 0.0, 40.0]))
        assert param.value(0.75) == pytest.approx(0.75, abs=1e-9)
        assert param.value(0.25) == pytest.approx(0.5, abs=1e-15)

    def test_value_strictly_inside_unit_interval(self):
        # float64 sigmoid saturates to exactly 0.0/1.0 beyond |w| ~ 36.7,
        # so strict interiority is tested on the representable range and the
        # wider range against the saturated bracket
        rng = np.random.default_rng(0)
        for _ in range(20):
            param = KParam(rng.uniform(-36.0, 36.0, size=6))
            vals = param.value(np.linspace(0, 1, 101))
            assert np.all(vals > 0.0) and np.all(vals < 1.0)
        for _ in range(10):
            param = KParam(rng.uniform(-40.0, 40.0, size=6))
            vals = param.value(np.linspace(0, 1, 101))
            assert np.all(vals >= expit(-40.0)) and np.all(vals <= expit(40.0))

    def test_constant_mode_is_time_independent(self):
        param = KParam.constant(0.8)
        vals = param.value(np.linspace(0, 1, 11))
        np.testing.assert_array_equal(vals, vals[0])

    def test_grad_raw_routes_to_bracketing_knots(self):
        param = KParam(np.zeros(3))  # knots 0, 0.5, 1
        grad = param.grad_raw(np.array([0.25]), np.array([1.0]))
        # weight 0.5 to each of knots 0 and 1 of the first bin, sigmoid slope 0.25
        np.testing.assert_allclose(grad, [0.125, 0.125, 0.0])

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            KParam(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            KParam(np.zeros(1))
        with pytest.raises(ValueError):
            KParam.constant(0.0)


class TestUToV:
    def test_k_half_collapses_to_doubling(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((6, 4))
        z = rng.standard_normal((6, 4))
        t = rng.uniform(0, 1, 6)
        np.testing.assert_array_equal(u_to_v(u, z, t, np.full(6, 0.5)), 2.0 * u)

    def test_x_prediction_identity(self):
        # k=1, t=0.9: v = (x - z) / 0.1 = x - n for z = 0.9 x + 0.1 n
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        n = rng.standard_normal(5)
        z = 0.9 * x + 0.1 * n
        v = u_to_v(x, z, 0.9, 1.0)
        np.testing.assert_allclose(v, x - n, atol=1e-12)

    def test_clamp_engages_near_the_end(self):
        # k=1, t=0.97: raw denominator 0.03 clamps to 0.05
        u = np.ones(3)
        z = np.zeros(3)
        np.testing.assert_allclose(u_to_v(u, z, 0.97, 1.0), np.ones(3) / 0.05)
        # a smaller floor leaves it unclamped
        np.testing.assert_allclose(
            u_to_v(u, z, 0.97, 1.0, clamp_floor=0.01), np.ones(3) / 0.03, rtol=1e-12
        )


class _OracleNet:
    """Test stub that emits a fixed output regardless of the input."""

    def __init__(self, output):
        self.output = np.asarray(output, dtype=np.float64)

    @property
    def dim(self):
        return self.output.shape[1]

    def params(self):
        return {}

    def forward(self, z, t):
        return self.output

    def forward_cache(self, z, t):
        return self.output, None

    def backward(self, cache, grad_out):
        return {}


class TestTrainingStep:
    @pytest.mark.parametrize("loss_mode", ["u", "v_alg1"])
    def test_perfect_oracle_gives_zero_loss_and_gradients(self, loss_mode):
        x = np.random.default_rng(3).standard_normal((8, 5))
        kparam = KParam.constant(0.62)
        config = TrainConfig(loss_mode=loss_mode, batch=8, steps=1)
        rng = ReplayRNG(42)
        t = sample_t(config.measure, rng, size=8)
        e = rng.standard_normal((8, 5))
        k = np.asarray(kparam.value(t))
        u = k[:, None] * x - (1.0 - k[:, None]) * e
        rng.rewind()
        loss, grads = training_step(_OracleNet(u), kparam, x, config, rng)
        assert loss == 0.0
        np.testing.assert_array_equal(grads["k"], 0.0)

    def test_frozen_k_loss_matches_equilibrium_loss(self):
        # with the weight pinned at the optimum, the average step loss over
        # many fresh batches reproduces the closed-form equilibrium loss
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(4))
        k = 0.75
        moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)
        from kdiff_lab import Spectrum, optimal_loss, sample_data

        net = PureLinear(equilibrium_weight(basis, moments))
        kparam = KParam.constant(k, trainable=False)
        config = TrainConfig(loss_mode="u", batch=512, steps=1)
        rng = np.random.default_rng(5)
        losses = []
        for _ in range(400):
            x = sample_data(basis, 512, rng)
            loss, _ = training_step(net, kparam, x, config, rng)
            losses.append(loss)
        losses = np.asarray(losses)
        se = losses.std(ddof=1) / math.sqrt(len(losses))
        expected = optimal_loss(moments, Spectrum.manifold(6, 2)).total
        assert abs(losses.mean() - expected) < 3.0 * se

    def test_non_finite_loss_raises(self):
        x = np.full((2, 3), 1e200)
        net = PureLinear(np.full((3, 3), 1e200))
        kparam = KParam.constant(0.5)
        config = TrainConfig(batch=2, steps=1)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss):
            training_step(net, kparam, x, config, np.random.default_rng(6))


class _KeepOutputs(PureLinear):
    """PureLinear that keeps every output it returns, with a copy taken at once."""

    def __init__(self, weight):
        super().__init__(weight)
        self.outputs = []

    def forward_cache(self, z, t):
        out, cache = super().forward_cache(z, t)
        self.outputs.append((out, out.copy()))
        return out, cache


class TestStepBuffers:
    """The buffered step against ``training_step_reference``, its allocating form."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        loss_mode=st.sampled_from(["u", "v_alg1"]),
        k_trainable=st.booleans(),
        n_bins=st.one_of(st.none(), st.integers(1, 8)),
        logit_normal=st.booleans(),
        dim=st.integers(1, 64),
        batch=st.integers(1, 300),
        clamp_floor=st.floats(0.01, 0.5),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_three_steps_on_shared_buffers_match_the_reference_bit_for_bit(
        self, loss_mode, k_trainable, n_bins, logit_normal, dim, batch, clamp_floor, seed
    ):
        rng = np.random.default_rng(seed)
        net = PureLinear(rng.standard_normal((dim, dim)) / math.sqrt(dim))
        raw = rng.uniform(-3.0, 3.0, size=None if n_bins is None else n_bins + 1)
        kparam = KParam(np.asarray(raw), trainable=k_trainable)
        if logit_normal:
            lo, hi = rng.uniform(0.0, 0.4), rng.uniform(0.6, 1.0)
            measure = TimeMeasure("logit_normal", (lo, hi), rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.5))
        else:
            measure = TimeMeasure()
        config = TrainConfig(
            loss_mode=loss_mode, batch=batch, steps=3, clamp_floor=clamp_floor,
            k_trainable=k_trainable, measure=measure,
        )
        buffers = _StepBuffers(batch, dim)
        stream = derive_rng(seed, "kdiff", "train")
        for _ in range(3):
            x = rng.standard_normal((batch, dim))
            twin = copy.deepcopy(stream)
            ref_loss, ref_grads = training_step_reference(net, kparam, x, config, twin)
            loss, grads = training_step(net, kparam, x, config, stream, buffers=buffers)
            assert loss == ref_loss
            assert grads.keys() == ref_grads.keys()
            for name, g in grads.items():
                assert np.array_equal(g, ref_grads[name]), name
            assert stream.random() == twin.random()  # both left the stream at one state

    @pytest.mark.parametrize("loss_mode", ["u", "v_alg1"])
    @pytest.mark.parametrize("k_trainable", [False, True])
    def test_step_writes_only_its_buffers(self, loss_mode, k_trainable):
        rng = np.random.default_rng(31)
        dim, batch = 6, 40
        net = _KeepOutputs(0.5 * rng.standard_normal((dim, dim)))
        kparam = KParam(rng.uniform(-1.0, 1.0, size=5), trainable=k_trainable)
        config = TrainConfig(loss_mode=loss_mode, batch=batch, steps=2, k_trainable=k_trainable)
        draws = ReplayRNG(32)
        buffers = _StepBuffers(batch, dim)
        x = rng.standard_normal((batch, dim))
        x_copy = x.copy()
        loss, grads = training_step(net, kparam, x, config, draws, buffers=buffers)
        loss_copy = float(loss)
        grads_copy = {name: g.copy() for name, g in grads.items()}
        training_step(net, kparam, rng.standard_normal((batch, dim)), config, draws, buffers=buffers)
        assert loss == loss_copy
        for name, g in grads.items():
            np.testing.assert_array_equal(g, grads_copy[name])
        np.testing.assert_array_equal(x, x_copy)
        # the tape holds the very arrays the step received; a fresh generator redraws them
        fresh = np.random.default_rng(32)
        assert len(draws._tape) == 4 and len(net.outputs) == 2
        for kind, args, value in draws._tape:
            np.testing.assert_array_equal(value, getattr(fresh, kind)(*args))
        for value, kept in net.outputs:
            np.testing.assert_array_equal(value, kept)

    @pytest.mark.parametrize("loss_mode", ["u", "v_alg1"])
    @pytest.mark.parametrize("n_bins", [None, 16], ids=["constant", "binned"])
    def test_train_matches_a_loop_of_reference_steps(self, loss_mode, n_bins):
        basis = random_orthonormal_basis(64, 4, np.random.default_rng(33))
        config = TrainConfig(loss_mode=loss_mode, batch=256, steps=40, seed=34)
        net, kparam = PureLinear.zeros(64), make_kparam(config, n_bins)
        history = train(net, kparam, basis, config)

        ref_net, ref_kparam = PureLinear.zeros(64), make_kparam(config, n_bins)
        params = {"net.weight": ref_net.weight, "k": ref_kparam.raw}
        state, losses, k_values = OptimizerState(), [], []
        stream = derive_rng(config.seed, "kdiff", "train")
        for _ in range(config.steps):
            x = sample_data(basis, config.batch, stream)
            loss, grads = training_step_reference(ref_net, ref_kparam, x, config, stream)
            optimizer_step(params, grads, state, config)
            losses.append(loss)
            k_values.append(ref_kparam.value(0.5 if n_bins is None else K_PROBES))
        np.testing.assert_array_equal(history.losses, losses)
        np.testing.assert_array_equal(history.k_values, np.asarray(k_values))
        np.testing.assert_array_equal(net.weight, ref_net.weight)


@pytest.mark.parametrize("name", ["lr", "adam_eps"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_train_config_rejects_a_rate_that_is_not_positive_and_finite(name, value):
    # NaN compares false with every bound, so a plain <= 0 check would let it through to the first step
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        TrainConfig(**{name: value})


class TestLossEquivalence:
    def test_v_loss_is_kappa_squared_times_u_loss_per_sample(self):
        rng = np.random.default_rng(7)
        n, dim = 10_000, 4
        t = rng.uniform(0.1, 0.9, n)
        k = rng.uniform(0.1, 0.9, n)
        x = rng.standard_normal((n, dim))
        e = rng.standard_normal((n, dim))
        u_hat = rng.standard_normal((n, dim))
        z = t[:, None] * x + (1.0 - t)[:, None] * e
        u = k[:, None] * x - (1.0 - k)[:, None] * e
        raw_den = k * (1.0 - t) + (1.0 - k) * t
        assert raw_den.min() > 0.05, "test region must stay unclamped"
        v = u_to_v(u, z, t, k)
        v_pred = u_to_v(u_hat, z, t, k)
        v_loss = 0.5 * np.sum((v_pred - v) ** 2, axis=1)
        u_loss = 0.5 * np.sum((u_hat - u) ** 2, axis=1)
        np.testing.assert_allclose(v_loss, u_loss / raw_den**2, atol=1e-10, rtol=0)

    def test_conversion_factor_matches_kappa(self):
        for k, t in [(0.2, 0.3), (0.7, 0.6), (0.5, 0.9)]:
            kap = kappa(k_target(k), V_TARGET, t)
            assert kap == pytest.approx(1.0 / (k * (1.0 - t) + (1.0 - k) * t), rel=1e-14)

    def test_batch_means_agree_between_modes(self):
        # same draws: the v_alg1 step's loss and weight gradient against the velocity MSE built
        # through u_to_v, on a draw that stays unclamped and on one where some rows clamp
        x = np.random.default_rng(8).standard_normal((64, 4))
        net = PureLinear(0.3 * np.random.default_rng(9).standard_normal((4, 4)))
        for k_value, floor, clamps in ((0.7, 0.05, False), (0.97, 0.2, True)):
            kparam = KParam.constant(k_value)
            rng = ReplayRNG(10)
            config = TrainConfig(loss_mode="v_alg1", steps=1, clamp_floor=floor)
            loss_v, grads = training_step(net, kparam, x, config, rng)
            rng.rewind()
            t = sample_t(UNIFORM_MEASURE, rng, size=64)
            e = rng.standard_normal((64, 4))
            k = np.asarray(kparam.value(t))
            z = t[:, None] * x + (1.0 - t)[:, None] * e
            u = k[:, None] * x - (1.0 - k)[:, None] * e
            raw_den = k * (1.0 - t) + (1.0 - k) * t
            clamped = raw_den <= floor
            assert clamped.any() == clamps and not clamped.all()
            residual = u_to_v(net.forward(z, t), z, t, k, floor) - u_to_v(u, z, t, k, floor)
            assert loss_v == pytest.approx(0.5 * float(np.sum(residual**2)) / 64, rel=1e-12)
            # v_pred depends on u_hat = z W^T through 1 / den
            grad_w = (residual / np.maximum(raw_den, floor)[:, None]).T @ z / 64
            assert np.linalg.norm(grads["net.weight"] - grad_w) <= 1e-12 * np.linalg.norm(grad_w)
            if not clamps:
                per_sample_u = 0.5 * np.sum((net.forward(z, t) - u) ** 2, axis=1)
                assert loss_v == pytest.approx(float(np.mean(per_sample_u / raw_den**2)), rel=1e-12)


class TestGradients:
    @pytest.mark.parametrize("loss_mode", ["u", "v_alg1"])
    def test_matches_central_differences(self, loss_mode):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 12:
            net, kparam, x, config, seed, margin = random_gradient_instance(rng, loss_mode)
            if loss_mode == "v_alg1" and margin < 2e-3:
                continue
            worst = gradient_check(net, kparam, x, config, seed)
            assert worst <= 1e-5, f"gradient mismatch {worst:.2e} (seed {seed})"
            checked += 1


class TestOptimizer:
    def test_sgd_unit_learning_rate(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([0.5, -1.0])}
        config = TrainConfig(optimizer="sgd", lr=1.0)
        optimizer_step(params, grads, OptimizerState(), config)
        np.testing.assert_array_equal(params["w"], [0.5, 3.0])

    def test_adam_first_step_is_lr_scaled_sign(self):
        params = {"w": np.zeros(3)}
        grads = {"w": np.array([10.0, -0.01, 3.0])}
        config = TrainConfig(optimizer="adam", lr=1e-2)
        optimizer_step(params, grads, OptimizerState(), config)
        assert np.all(np.abs(params["w"]) <= config.lr * (1.0 + 1e-6))
        np.testing.assert_allclose(np.abs(params["w"]), config.lr, rtol=1e-5)
        assert np.all(np.sign(params["w"]) == [-1.0, 1.0, -1.0])

    def test_zero_gradients_leave_parameters_unchanged(self):
        for opt in ("sgd", "adam"):
            params = {"w": np.array([1.0, -2.0])}
            state = OptimizerState()
            config = TrainConfig(optimizer=opt, lr=0.1)
            for _ in range(3):
                optimizer_step(params, {"w": np.zeros(2)}, state, config)
            np.testing.assert_array_equal(params["w"], [1.0, -2.0])

    def test_scalar_parameter_updates_in_place(self):
        raw = np.asarray(0.0)
        params = {"k": raw}
        optimizer_step(params, {"k": np.asarray(2.0)}, OptimizerState(), TrainConfig(optimizer="sgd", lr=0.5))
        assert float(raw) == -1.0

    def test_adam_moments_are_created_once_and_updated_in_place(self, monkeypatch):
        zeros_like, made = np.zeros_like, []
        monkeypatch.setattr(np, "zeros_like", lambda a, *args, **kw: made.append(a) or zeros_like(a, *args, **kw))
        rng = np.random.default_rng(35)
        params = {"w": rng.standard_normal((64, 64)), "k": np.asarray(0.3)}
        ref = {name: p.copy() for name, p in params.items()}
        config = TrainConfig(optimizer="adam", lr=1e-2)
        state, ref_m, ref_v = OptimizerState(), {}, {}
        for step in range(1, 4):
            grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
            optimizer_step(params, grads, state, config)
            assert len(made) == 4  # two moments per parameter, all made at step 1
            if step == 1:
                moments = {name: (state.m[name], state.v[name]) for name in params}
            for name, (m, v) in moments.items():
                assert state.m[name] is m and state.v[name] is v
            # Adam written out with fresh arrays, bit for bit
            c1, c2 = 1.0 - config.beta1**step, 1.0 - config.beta2**step
            for name, g in grads.items():
                m = ref_m[name] = config.beta1 * ref_m.get(name, 0.0) + (1.0 - config.beta1) * g
                v = ref_v[name] = config.beta2 * ref_v.get(name, 0.0) + (1.0 - config.beta2) * g * g
                ref[name] = ref[name] - config.lr * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)
                assert np.array_equal(params[name], ref[name]), (name, step)


class TestTrain:
    def test_deterministic_given_seed(self):
        basis = random_orthonormal_basis(8, 2, np.random.default_rng(16))
        config = TrainConfig(steps=100, batch=64, seed=21)
        runs = []
        for _ in range(2):
            net = PureLinear.zeros(8)
            kparam = KParam.constant(0.5)
            runs.append((train(net, kparam, basis, config), net.weight.copy()))
        (h1, w1), (h2, w2) = runs
        np.testing.assert_array_equal(h1.losses, h2.losses)
        np.testing.assert_array_equal(h1.k_values, h2.k_values)
        np.testing.assert_array_equal(w1, w2)

    def test_k_stays_strictly_inside_unit_interval(self):
        basis = random_orthonormal_basis(8, 2, np.random.default_rng(17))
        net = PureLinear.zeros(8)
        kparam = KParam.constant(0.5)
        config = TrainConfig(steps=500, batch=64, seed=3)
        history = train(net, kparam, basis, config)
        assert np.all(history.k_values > expit(-40.0))
        assert np.all(history.k_values < expit(40.0))

    def test_trainable_k_moves_toward_dimension_ratio(self):
        # D=16, d=4: the loss-minimising target parameter is 16/20 = 0.8
        basis = random_orthonormal_basis(16, 4, np.random.default_rng(2))
        net = PureLinear.zeros(16)
        kparam = KParam.constant(0.5)
        config = TrainConfig(steps=3000, batch=128, seed=11)
        history = train(net, kparam, basis, config)
        assert abs(history.final_k - 0.8) < 0.05

    def test_frozen_k_weight_converges_to_equilibrium(self):
        basis = random_orthonormal_basis(2, 1, np.random.default_rng(100))
        net = PureLinear.zeros(2)
        kparam = KParam.constant(0.5, trainable=False)
        config = TrainConfig(
            loss_mode="u", optimizer="sgd", lr=3e-2, batch=32768, steps=1000,
            seed=5, k_trainable=False,
        )
        train(net, kparam, basis, config)
        moments = compute_moments(FLOW_MATCHING, k_target(0.5), U_LOSS, UNIFORM_MEASURE)
        w_star = equilibrium_weight(basis, moments)
        assert np.linalg.norm(net.weight - w_star) < 1e-3

    def test_binned_history_records_probe_points(self):
        basis = random_orthonormal_basis(6, 2, np.random.default_rng(18))
        net = PureLinear.zeros(6)
        kparam = KParam.binned(8, 0.5)
        config = TrainConfig(steps=50, batch=32, seed=9)
        history = train(net, kparam, basis, config)
        assert history.k_values.shape == (50, 5)
        np.testing.assert_array_equal(history.probe_points, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert history.final_k == history.k_values[-1, 2]  # the central probe
