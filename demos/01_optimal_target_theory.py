#!/usr/bin/env python3
"""Where is the best prediction target between noise-, velocity- and
data-prediction?

The equilibrium loss of a single linear layer trained on the k-target
family (k x - (1 - k) n) is a quadratic in k whose minimiser depends only
on the ambient dimension D and the intrinsic dimension d of the data:

    k* = D / (D + d)

Dense data (D = d) prefers velocity prediction (k = 0.5); sparse
high-dimensional data pushes k* toward plain data prediction (k = 1).
"""

import numpy as np

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    DimensionPair,
    Spectrum,
    TimeMeasure,
    argmin_k,
    colored_optimal_k,
    compute_moments,
    k_target,
    optimal_loss,
    optimal_loss_poly,
    u_loss_optimal_k,
)


def main():
    print("=== Closed-form loss curves over k ===")
    ks = np.linspace(0.0, 1.0, 11)
    for ambient, d in [(8, 8), (16, 4), (100, 10), (1024, 8)]:
        dims = DimensionPair(ambient, d)
        curve = " ".join(f"{optimal_loss_poly(float(k), dims):7.3f}" for k in ks)
        k_star = colored_optimal_k(Spectrum.manifold(ambient, d))
        print(f"D={ambient:5d} d={d:3d}:  {curve}   k* = {k_star:.4f}")
    print("(columns are k = 0.0, 0.1, ..., 1.0)")

    print()
    print("=== The polynomial agrees with the quadrature route ===")
    dims, spectrum = DimensionPair(48, 6), Spectrum.manifold(48, 6)
    for k in (0.0, 0.37, 0.92):
        moments = compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE)
        split = optimal_loss(moments, spectrum)
        poly = optimal_loss_poly(k, dims)
        print(
            f"k={k:4.2f}: quadrature {split.total:.12f} (par {split.parallel:.6f}, "
            f"perp {split.perpendicular:.6f})  poly {poly:.12f}  "
            f"diff {abs(split.total - poly):.1e}"
        )

    print()
    print("=== Numeric minimiser equals D/(D+d) ===")
    for ambient, d in [(2, 1), (64, 4), (512, 512)]:
        dims = DimensionPair(ambient, d)
        numeric = argmin_k(lambda k: optimal_loss_poly(k, dims), tol=1e-8)
        closed = colored_optimal_k(Spectrum.manifold(ambient, d))
        print(f"D={ambient:4d} d={d:3d}: argmin {numeric:.8f}  closed form {closed:.8f}")

    print()
    print("=== A non-uniform time sampler shifts the optimum ===")
    spectrum = Spectrum.manifold(64, 4)
    for label, measure in [
        ("uniform", UNIFORM_MEASURE),
        ("logit-normal(0, 1)", TimeMeasure("logit_normal", mu=0.0, sigma=1.0)),
        ("logit-normal(-0.8, 0.8)", TimeMeasure("logit_normal", mu=-0.8, sigma=0.8)),
    ]:

        def moments_at(k):
            return compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, measure, quad_nodes=128)

        numeric = argmin_k(lambda k: optimal_loss(moments_at(k), spectrum).total, tol=1e-8)
        # under the u-loss the moments that fix k* do not depend on k
        exact = u_loss_optimal_k(spectrum.eigenvalues, moments_at(1.0))
        print(f"{label:26s}: numeric k* = {numeric:.6f}  exact k* = {exact:.6f}")
    print("(a time sampler symmetric about t=0.5 leaves the minimiser at D/(D+d);")
    print(" an asymmetric one genuinely moves it)")


if __name__ == "__main__":
    main()
