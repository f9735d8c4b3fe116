#!/usr/bin/env python3
"""Generating samples by integrating the learned velocity field.

The network's target-space output is converted to a velocity with the same
clamped denominator as in training, then integrated from pure noise (t=0)
to data (t=1) with Euler or Heun steps.  The demo measures the solvers'
self-convergence orders, shows the off-manifold energy collapsing along the
way, and checks the exact k=0.5 equivalence with plain velocity prediction.
"""

import numpy as np

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    KParam,
    PureLinear,
    SampleRun,
    compute_moments,
    equilibrium_weight,
    integrate,
    k_target,
    random_orthonormal_basis,
)


def main():
    rng = np.random.default_rng(0)
    basis = random_orthonormal_basis(8, 2, rng)

    def optimal_net(k):
        moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)
        return PureLinear(equilibrium_weight(basis, moments))

    print("=== Self-convergence order under grid doubling ===")
    net = PureLinear(0.4 * rng.standard_normal((4, 4)))
    kparam = KParam.constant(0.7)
    z0 = rng.standard_normal((8, 4))
    for solver in ("euler", "heun"):
        outs = {
            n: integrate(SampleRun(steps=n, solver=solver), net, kparam, z0)
            for n in (25, 50, 100)
        }
        ratio = np.linalg.norm(outs[25] - outs[50]) / np.linalg.norm(outs[50] - outs[100])
        print(f"{solver:5s}: error ratio {ratio:.3f} (first order -> 2, second order -> 4)")

    print()
    print("=== Off-manifold energy collapses during sampling ===")
    proj = basis.projector()
    for k in (0.5, 0.8, 1.0):
        samples0 = np.random.default_rng(1).standard_normal((2000, 8))
        samples1 = integrate(SampleRun(steps=50, solver="heun"), optimal_net(k), k, samples0)

        def off(z):
            perp = z - z @ proj
            return float(np.sum(perp * perp) / np.sum(z * z))

        print(f"k={k:4.2f}: off-manifold fraction {off(samples0):.3f} -> {off(samples1):.4f}")

    print()
    print("=== On-manifold second moment of samples (k = 0.5) ===")
    z0 = np.random.default_rng(2).standard_normal((10_000, 8))
    out = integrate(SampleRun(steps=50, solver="heun"), optimal_net(0.5), 0.5, z0)
    latents = out @ basis.eigenvectors
    second = np.diag(latents.T @ latents / len(latents))
    print(f"second moment along the manifold directions: {np.round(second, 3)} (target 1)")

    print()
    print("=== k = 0.5 sampling is exactly velocity-prediction sampling ===")
    weight = 0.3 * rng.standard_normal((6, 6))
    z0 = rng.standard_normal((32, 6))
    run = SampleRun(steps=50, solver="heun")
    via_k = integrate(run, PureLinear(weight), KParam.constant(0.5), z0)
    via_v = integrate(run, PureLinear(2.0 * weight), None, z0)
    print(f"bitwise identical outputs: {np.array_equal(via_k, via_v)}")


if __name__ == "__main__":
    main()
