#!/usr/bin/env python3
"""Learning the prediction target instead of choosing it.

A single extra scalar (k = sigmoid(w_k)) is trained jointly with the
network by backpropagating through the target itself.  On synthetic
manifold data the learned k recovers the dimension ratio D/(D+d) without
ever being told the intrinsic dimension.
"""

import numpy as np

from kdiff_lab import (
    Spectrum,
    TrainConfig,
    colored_optimal_k,
    random_orthonormal_basis,
    train,
)


def run(ambient, d, steps=4000, seed=11):
    basis = random_orthonormal_basis(ambient, d, np.random.default_rng(2 * seed))
    return train(basis, TrainConfig(steps=steps, batch=128, seed=seed))


def main():
    print("=== Sparse data: D=16, d=4 (optimal k = 0.8) ===")
    history = run(16, 4)
    print("step      loss      k")
    for i in (0, 99, 499, 999, 1999, 3999):
        print(f"{history.steps[i]:5d}  {history.losses[i]:8.4f}   {history.k_values[i]:.4f}")
    print(f"final k = {history.final_k:.4f}, theory {colored_optimal_k(Spectrum.manifold(16, 4)):.4f}")

    print()
    print("=== Dense control: D=d=8 (optimal k = 0.5, velocity prediction) ===")
    history = run(8, 8)
    print(f"final k = {history.final_k:.4f}, theory 0.5000")

    print()
    print("=== Time-binned k(t) with a handful of bins ===")
    basis = random_orthonormal_basis(16, 4, np.random.default_rng(5))
    history = train(basis, TrainConfig(steps=4000, batch=128, seed=13, k_bins=8))
    probes = ", ".join(
        f"k({p:g})={v:.3f}" for p, v in zip(history.probe_points, history.k_values[-1])
    )
    print(f"final probe values: {probes}; final k (central probe) = {history.final_k:.3f}")
    print("(a constant k is the recommended configuration; the binned variant")
    print(" exists to study time dependence)")


if __name__ == "__main__":
    main()
