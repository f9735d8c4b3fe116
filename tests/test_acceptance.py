"""Acceptance suite: one test per exit criterion, each printing a pass line.

Every tolerance is pinned here; run with `pytest -v` (or `-s` to see the
pass lines immediately).  The criteria cover the closed-form minimiser, the
Monte Carlo oracle for the equilibrium loss, exact learning dynamics and
mode decoupling, the flagship trainable-k reproduction, the loss-weighting
identity, the gradient contract, colored-data consistency, and sampler
convergence orders.
"""

import time

import numpy as np
import pytest

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    V_TARGET,
    DimensionPair,
    FlowConfig,
    KParam,
    PureLinear,
    SampleRun,
    Spectrum,
    TargetSpec,
    TrainConfig,
    argmin_k,
    colored_mode_losses,
    colored_optimal_k,
    compute_moments,
    equilibrium_weight,
    flow_weight,
    integrate,
    k_target,
    kappa,
    monte_carlo_loss,
    optimal_loss,
    optimal_loss_poly,
    random_orthonormal_basis,
    run_gradient_flow,
    train,
    u_to_v,
)
from helpers import gradient_check, random_gradient_instance


def _report(criterion: int, name: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget:.0f}s"


def test_criterion_1_closed_form_minimiser():
    """argmin of the closed-form loss equals D/(D+d) over a 50-pair sweep."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    pairs = [(1, 1), (512, 1), (512, 512), (64, 4), (100, 10)]
    while len(pairs) < 50:
        d = int(rng.integers(1, 513))
        ambient = int(rng.integers(d, 513))
        pairs.append((ambient, d))
    for ambient, d in pairs:
        dims = DimensionPair(ambient, d)
        numeric = argmin_k(lambda k: optimal_loss_poly(k, dims), tol=1e-8)
        assert abs(numeric - colored_optimal_k(Spectrum.manifold(ambient, d))) <= 1e-6, (ambient, d)
    _report(1, "closed-form optimal k", time.perf_counter() - start, 1.0)


def test_criterion_2_monte_carlo_oracle_matches_equilibrium_loss():
    """Simulated loss at the equilibrium weight matches the closed form, 3 SE."""
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    k_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    configs = [(2, 1, 0.5)]
    while len(configs) < 20:
        d = int(rng.integers(1, 33))
        ambient = int(rng.integers(d, 33))
        configs.append((ambient, d, float(k_grid[rng.integers(len(k_grid))])))
    for index, (ambient, d, k) in enumerate(configs):
        moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)
        basis = random_orthonormal_basis(ambient, d, rng)
        w_star = equilibrium_weight(basis, moments)
        expected = optimal_loss(moments, Spectrum.manifold(ambient, d)).total
        estimate, se = monte_carlo_loss(
            w_star, basis, k, 1_000_000, np.random.default_rng(3000 + index)
        )
        assert abs(estimate - expected) <= 3.0 * se, (ambient, d, k, estimate, expected, se)
        if (ambient, d, k) == (2, 1, 0.5):
            assert expected == pytest.approx(0.28125, abs=1e-12)
            assert abs(estimate - 0.28125) <= 3.0 * se
    _report(2, "Monte Carlo equilibrium-loss oracle", time.perf_counter() - start, 60.0)


def test_criterion_3_exact_dynamics_contraction():
    """Gradient flow from zero reaches the equilibrium with the predicted rates."""
    start = time.perf_counter()
    basis = random_orthonormal_basis(16, 4, np.random.default_rng(42))
    moments = compute_moments(FLOW_MATCHING, k_target(1.0), U_LOSS, UNIFORM_MEASURE)
    step = 0.5
    # predicted per-step contraction factors for the two modes
    factor_par = 1.0 - step * (moments.alpha_sq + moments.sigma_sq)
    factor_perp = 1.0 - step * moments.sigma_sq
    assert factor_par == pytest.approx(1.0 - step * 2.0 / 3.0, abs=1e-12)
    assert factor_perp == pytest.approx(1.0 - step * 1.0 / 3.0, abs=1e-12)

    config = FlowConfig(step_size=step, steps=200, mode="exact")
    trajectory = run_gradient_flow(np.zeros((16, 16)), basis, config, target=1.0)
    final = flow_weight(np.zeros((16, 16)), basis, moments, step, trajectory[-1].step).total
    assert np.linalg.norm(final - 0.75 * basis.projector()) < 1e-6

    dist_par = np.array([rec.dist_par for rec in trajectory])
    # the measured ratio saturates once the distance reaches the float noise
    # floor of the fixed point (~1e-15), so test it down to 1e-6
    usable = (dist_par[:-1] > 1e-6) & (dist_par[1:] > 0.0)
    ratios = dist_par[1:][usable] / dist_par[:-1][usable]
    assert ratios.size >= 30
    np.testing.assert_allclose(ratios, factor_par, atol=1e-9)

    # x-prediction drives no perpendicular weight: that mode sits exactly at
    # its equilibrium the whole way, consistent with its contraction factor
    dist_perp = np.array([rec.dist_perp for rec in trajectory])
    assert np.all(dist_perp == 0.0)
    _report(3, "learning-dynamics convergence", time.perf_counter() - start, 1.0)


def test_criterion_4_perpendicular_mode_decoupling():
    """The perpendicular trajectory is bitwise invariant to the data coefficient."""
    start = time.perf_counter()
    basis = random_orthonormal_basis(16, 4, np.random.default_rng(43))
    config = FlowConfig(step_size=0.5, steps=200, mode="exact")
    trajectories, weights = [], []
    for phi in (0.2, 0.8):
        target = TargetSpec(phi, -0.5, name=f"phi={phi}")
        trajectories.append(
            run_gradient_flow(np.zeros((16, 16)), basis, config, target=target)
        )
        moments = compute_moments(FLOW_MATCHING, target, U_LOSS, UNIFORM_MEASURE)
        weights.append(
            [flow_weight(np.zeros((16, 16)), basis, moments, config.step_size, rec.step) for rec in trajectories[-1]]
        )
    assert len(trajectories[0]) == len(trajectories[1])
    parallel_differs = False
    for rec_a, rec_b, w_a, w_b in zip(*trajectories, *weights):
        assert np.array_equal(w_a.perpendicular, w_b.perpendicular)
        assert rec_a.dist_perp == rec_b.dist_perp
        parallel_differs = parallel_differs or not np.array_equal(
            w_a.parallel, w_b.parallel
        )
    assert parallel_differs, "data coefficient must affect the parallel mode"
    _report(4, "perpendicular-mode decoupling", time.perf_counter() - start, 1.0)


def test_criterion_5_flagship_trainable_k():
    """Trainable k lands at D/(D+d) on sparse data and at 0.5 on dense data."""
    start = time.perf_counter()
    target_sparse = 64.0 / 68.0
    for seed in (1, 2, 3):
        basis = random_orthonormal_basis(64, 4, np.random.default_rng(500 + seed))
        config = TrainConfig(
            loss_mode="u",
            optimizer="adam",
            lr=1e-2,
            beta1=0.9,
            beta2=0.95,
            batch=256,
            steps=20_000,
            seed=seed,
            k_init=0.5,
        )
        history = train(basis, config)
        assert abs(history.final_k - target_sparse) <= 0.03, (seed, history.final_k)

    basis = random_orthonormal_basis(8, 8, np.random.default_rng(504))
    history = train(basis, TrainConfig(steps=20_000, batch=256, seed=7))
    assert abs(history.final_k - 0.5) <= 0.03, history.final_k
    _report(5, "flagship trainable-k reproduction", time.perf_counter() - start, 300.0)


def test_criterion_6_loss_weighting_identity():
    """Velocity-space loss equals the squared conversion factor times the target loss."""
    start = time.perf_counter()
    rng = np.random.default_rng(6006)
    n, dim = 10_000, 4
    t = rng.uniform(0.1, 0.9, n)
    k = rng.uniform(0.1, 0.9, n)
    x = rng.standard_normal((n, dim))
    e = rng.standard_normal((n, dim))
    u_hat = rng.standard_normal((n, dim))
    z = t[:, None] * x + (1.0 - t)[:, None] * e
    u = k[:, None] * x - (1.0 - k)[:, None] * e
    raw_den = k * (1.0 - t) + (1.0 - k) * t
    assert raw_den.min() > 0.05, "all samples must be unclamped"
    v_loss = 0.5 * np.sum((u_to_v(u_hat, z, t, k) - u_to_v(u, z, t, k)) ** 2, axis=1)
    u_loss = 0.5 * np.sum((u_hat - u) ** 2, axis=1)
    assert np.max(np.abs(v_loss - u_loss / raw_den**2)) <= 1e-10

    grid = np.linspace(0.0, 1.0, 1001)
    np.testing.assert_array_equal(kappa(V_TARGET, V_TARGET, grid), 1.0)
    _report(6, "loss-weighting identity", time.perf_counter() - start, 1.0)


def test_criterion_7_gradient_contract():
    """Hand-derived gradients match central finite differences on 100 instances."""
    start = time.perf_counter()
    rng = np.random.default_rng(7007)
    checked = 0
    toggle = 0
    while checked < 100:
        loss_mode = "u" if toggle % 2 == 0 else "v_alg1"
        toggle += 1
        net, kparam, x, config, seed, margin = random_gradient_instance(rng, loss_mode)
        if loss_mode == "v_alg1" and margin < 2e-3:
            continue  # finite differences cannot straddle the clamp kink
        worst = gradient_check(net, kparam, x, config, seed)
        assert worst <= 1e-5, f"instance {checked}: relative error {worst:.2e}"
        checked += 1
    _report(7, "gradient contract", time.perf_counter() - start, 10.0)


def test_criterion_8_colored_data_consistency():
    """Colored-spectrum minimiser matches D/(D+trace); binary spectra match the split."""
    start = time.perf_counter()
    rng = np.random.default_rng(8008)
    for _ in range(10):
        dim = int(rng.integers(1, 17))
        spectrum = Spectrum(rng.uniform(0.0, 4.0, size=dim))
        numeric = argmin_k(
            lambda k: optimal_loss(
                compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE), spectrum
            ).total,
            tol=1e-8,
        )
        assert abs(numeric - colored_optimal_k(spectrum)) <= 1e-6

    for _ in range(10):
        d = int(rng.integers(1, 8))
        ambient = int(rng.integers(d + 1, 17))
        k = float(rng.uniform(0.0, 1.0))
        lam = np.concatenate([np.ones(d), np.zeros(ambient - d)])
        moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)
        per_mode = colored_mode_losses(lam, moments)
        split = optimal_loss(moments, Spectrum(lam))
        assert abs(np.sum(per_mode[:d]) - split.parallel) <= 1e-10
        assert abs(np.sum(per_mode[d:]) - split.perpendicular) <= 1e-10
    _report(8, "colored-data consistency", time.perf_counter() - start, 5.0)


def test_criterion_9_sampler_orders_and_equivalence():
    """Euler/Heun self-convergence orders; k=0.5 sampling == velocity sampling."""
    start = time.perf_counter()
    rng = np.random.default_rng(9009)
    weight = 0.4 * rng.standard_normal((4, 4))
    net = PureLinear(weight)
    kparam = KParam.constant(0.7)
    z0 = rng.standard_normal((8, 4))

    ratios = {}
    for solver in ("euler", "heun"):
        outs = {
            steps: integrate(SampleRun(steps=steps, solver=solver), net, kparam, z0)
            for steps in (25, 50, 100)
        }
        ratios[solver] = np.linalg.norm(outs[25] - outs[50]) / np.linalg.norm(
            outs[50] - outs[100]
        )
    assert 1.7 <= ratios["euler"] <= 2.3, ratios
    assert 3.5 <= ratios["heun"] <= 4.5, ratios

    z0 = rng.standard_normal((32, 4))
    for solver in ("euler", "heun"):
        run = SampleRun(steps=50, solver=solver)
        via_k = integrate(run, PureLinear(weight), KParam.constant(0.5), z0)
        via_v = integrate(run, PureLinear(2.0 * weight), None, z0)
        assert np.array_equal(via_k, via_v)
    _report(9, "sampler orders and k=0.5 equivalence", time.perf_counter() - start, 5.0)
