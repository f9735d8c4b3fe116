#!/usr/bin/env python3
"""Watching the two learning modes of a linear diffusion model.

Gradient flow on the quadratic training loss splits into a mode parallel to
the data manifold (data recovery) and one perpendicular to it (noise
elimination).  Both contract geometrically toward the equilibrium weight,
at different rates, and the perpendicular mode never sees the target's data
coefficient.  A Monte Carlo estimate of the loss at the equilibrium
reproduces the closed form.
"""

import numpy as np

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    FlowConfig,
    Spectrum,
    TargetSpec,
    compute_moments,
    equilibrium_weight,
    flow_weight,
    k_target,
    monte_carlo_loss,
    optimal_loss,
    random_orthonormal_basis,
    run_gradient_flow,
)


def main():
    rng = np.random.default_rng(0)
    basis = random_orthonormal_basis(16, 4, rng)

    print("=== Exact gradient flow, x-prediction target (k = 1) ===")
    config = FlowConfig(step_size=0.5, steps=200, mode="exact")
    trajectory = run_gradient_flow(np.zeros((16, 16)), basis, config, target=1.0)
    print("step   loss           dist_par       dist_perp")
    for rec in trajectory[:6] + trajectory[-2:]:
        print(f"{rec.step:4d}   {rec.loss:.10f}   {rec.dist_par:.6e}   {rec.dist_perp:.6e}")
    ratios = [
        b.dist_par / a.dist_par for a, b in zip(trajectory, trajectory[1:]) if a.dist_par > 1e-6
    ]
    print(f"measured parallel contraction per step: {ratios[0]:.12f} (predicted 2/3)")

    print()
    print("=== The perpendicular mode ignores the data coefficient ===")
    # a trajectory row holds numbers; flow_weight gives the weight at any of its steps
    runs = {}
    for phi in (0.2, 0.8):
        moments = compute_moments(FLOW_MATCHING, TargetSpec(phi, -0.5), U_LOSS, UNIFORM_MEASURE)
        runs[phi] = [
            flow_weight(np.zeros((16, 16)), basis, moments, config.step_size, step) for step in range(config.steps + 1)
        ]
    same = all(
        np.array_equal(a.perpendicular, b.perpendicular) for a, b in zip(runs[0.2], runs[0.8])
    )
    par_same = all(
        np.array_equal(a.parallel, b.parallel) for a, b in zip(runs[0.2], runs[0.8])
    )
    print(f"perpendicular trajectories bitwise identical: {same}")
    print(f"parallel trajectories identical:              {par_same} (they must differ)")

    print()
    print("=== Monte Carlo oracle at the equilibrium weight ===")
    for ambient, d, k in [(2, 1, 0.5), (16, 4, 1.0), (12, 12, 0.25)]:
        moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)
        data_basis = random_orthonormal_basis(ambient, d, rng)
        w_star = equilibrium_weight(data_basis, moments)
        expected = optimal_loss(moments, Spectrum.manifold(ambient, d)).total
        estimate, se = monte_carlo_loss(
            w_star, data_basis, k, 200_000, np.random.default_rng(2)
        )
        print(
            f"D={ambient:3d} d={d:3d} k={k:4.2f}: closed form {expected:.6f}, "
            f"simulated {estimate:.6f} +/- {se:.6f}"
        )


if __name__ == "__main__":
    main()
