#!/usr/bin/env python3
"""Beyond binary manifolds: colored data covariance.

When the data second moment has a general eigenvalue spectrum, every
eigenmode contributes its own equilibrium loss, and the optimal target
parameter becomes k* = D / (D + trace).  The loss splits, as on a manifold,
into the data's support (each distinct positive eigenvalue's mode loss
times its multiplicity) and its null space (the zero eigenvalues).  High-variance modes prefer
noise-prediction behaviour, low-variance modes data prediction; k*
balances them.
"""

import numpy as np

from kdiff_lab import (
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    Spectrum,
    argmin_k,
    colored_mode_losses,
    colored_optimal_k,
    compute_moments,
    k_target,
    optimal_loss,
)


def loss_at(k, spectrum):
    """The equilibrium loss of the k-target, flow matching with uniform time."""
    return optimal_loss(compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE), spectrum)


def main():
    print("=== Per-mode loss contributions at k = 0.6 ===")
    spectrum = Spectrum(np.array([4.0, 1.0, 0.25, 1.0, 0.0]))
    moments = compute_moments(FLOW_MATCHING, k_target(0.6), U_LOSS, UNIFORM_MEASURE)
    for lam, contribution in zip(spectrum.eigenvalues, colored_mode_losses(spectrum.eigenvalues, moments)):
        print(f"eigenvalue {lam:5.2f}: loss contribution {contribution:.5f}")
    res = optimal_loss(moments, spectrum)
    print(f"total {res.total:.5f} = support {res.parallel:.5f} + null space {res.perpendicular:.5f}")

    print()
    print("=== Closed-form minimiser vs numeric search ===")
    rng = np.random.default_rng(3)
    for _ in range(4):
        lam = np.round(rng.uniform(0.0, 3.0, size=rng.integers(2, 7)), 2)
        spec = Spectrum(lam)
        numeric = argmin_k(lambda k: loss_at(k, spec).total, tol=1e-8)
        print(
            f"spectrum {np.array2string(lam, precision=2):34s} "
            f"D/(D+tr) = {colored_optimal_k(spec):.6f}, argmin = {numeric:.6f}"
        )

    print()
    print("=== Binary spectra reduce to the dimension-pair formula ===")
    for ambient, d in [(16, 4), (64, 4), (8, 8)]:
        print(
            f"D={ambient:3d} d={d}: D/(D+trace) = {colored_optimal_k(Spectrum.manifold(ambient, d)):.6f}, "
            f"D/(D+d) = {ambient / (ambient + d):.6f}"
        )

    print()
    print("=== Limits ===")
    print(f"zero-variance data: k* = {colored_optimal_k(Spectrum(np.zeros(6))):.1f} (pure data prediction)")
    big = Spectrum(np.full(6, 1e6))
    print(f"huge-variance data: k* = {colored_optimal_k(big):.2e} (noise prediction)")


if __name__ == "__main__":
    main()
