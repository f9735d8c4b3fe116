"""Digest every output of a fixed matrix of CLI runs, to compare two checkouts byte for byte.

Usage:
    PYTHONPATH=<checkout>/src python3 tools/cli_digest.py > digest.txt

Each run calls ``kdiff_lab.cli.main`` in this process, in a fresh temporary
directory, and prints one line:

    <index> <command> <exit code> <sha256 of output files, stdout and stderr>

The files are hashed by name and content in name order.  Then each case of
``ORACLE`` prints one line with the digest of the Monte Carlo oracle's single
observations, which a mean and standard error can hide:

    <index> oracle <case> <sha256 of lindyn._loss_observations>

then one line per case with the digest of the equilibrium weight of the
case's source and moments, so that a change to W* shows on its own:

    <index> weight <case> <sha256 of lindyn.equilibrium_weight>

and last one line per case with the digest of the case's moment set, the
bytes of its nine floats in field order, so that a change to the moments
shows on its own:

    <index> moments <case> <sha256 of analytic.compute_moments>

Run the script once per checkout, with the same BLAS thread count (for
example ``OPENBLAS_NUM_THREADS=1``), and diff the two outputs: a line that
differs names the run whose bytes changed.  ``dynamics`` lines, exact and
stochastic, do not depend on the thread count; those of the other commands
were not seen to, but no test checks them.  ``RUNS`` pairs each config with
the exit code it has at this commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from kdiff_lab import (
    EPSILON_TARGET,
    FLOW_MATCHING,
    U_LOSS,
    UNIFORM_MEASURE,
    V_TARGET,
    X_TARGET,
    GaussianSource,
    TimeMeasure,
    compute_moments,
    equilibrium_weight,
    k_target,
    lindyn,
    random_orthonormal_basis,
)
from kdiff_lab.cli import main

_MANIFOLD = {"D": 12, "d": 3, "seed": 7}
_SQUARE = {"D": 5, "d": 5, "seed": 3}
_SPECTRUM = {"spectrum": [3.0, 1.0, 1.0, 0.2, 0.0]}
_ZERO_MODES = {"spectrum": [2.0, 1.0, 1.0, 0.5, 0.0, 0.0]}
_INTERLEAVED = {"spectrum": [1.0, 0.0, 2.0, 1.0, 0.0]}
_LOGIT_NORMAL = {"kind": "logit_normal", "mu": -0.4, "sigma": 0.9}
# [0.9, 1] lies 8.4 standard deviations above this measure's mean: its mass, about 2e-17, is an upper tail
_TAIL = {"time_sampler": {"kind": "logit_normal", "mu": -2.0, "sigma": 0.5}, "interval": [0.9, 1.0]}
_EXACT = {"mode": "exact", "steps": 200, "step_size": 0.5, "tol": 1e-6}
_STOCHASTIC = {"mode": "stochastic", "steps": 40, "step_size": 0.3, "batch": 32, "tol": 10.0}


def _theory_runs():
    for loss, measure, interval, data in itertools.product(
        ("u", "x", "epsilon", "v"),
        ({"kind": "uniform"}, _LOGIT_NORMAL),
        ([0.0, 1.0], [0.05, 0.95]),
        (_MANIFOLD, _SQUARE, _SPECTRUM),
    ):
        cfg = {"loss": loss, "time_sampler": measure, "interval": interval, "data": data}
        yield "theory", {**cfg, "theory": {"k_points": 21}}, 0


def _dynamics_runs():
    for data, k, flow in itertools.product((_MANIFOLD, _SQUARE, _ZERO_MODES), (1.0, 0.5, 0.2), (_EXACT, _STOCHASTIC)):
        yield "dynamics", {"data": data, "target": {"kind": "k", "k": k}, "dynamics": flow}, 0
    yield "dynamics", {"data": _MANIFOLD, "loss": "v", "time_sampler": _LOGIT_NORMAL,
                       "interval": [0.05, 0.95], "target": "x", "dynamics": {"steps": 3000, "tol": 1e-6}}, 0
    yield "dynamics", {"data": _MANIFOLD, "dynamics": {"steps": 5, "tol": 1e-6}}, 2
    yield "dynamics", {"data": _MANIFOLD, "dynamics": {"step_size": 4.0}}, 1
    yield "dynamics", {"data": _ZERO_MODES, "dynamics": {"step_size": 2.5}}, 1


def _train_runs():
    train = {"steps": 60, "batch": 32}
    yield "train", {"data": _MANIFOLD, "train": train}, 0
    yield "train", {"data": _MANIFOLD, "train": {**train, "k_trainable": False, "optimizer": "sgd"}}, 0
    yield "train", {"data": _MANIFOLD, "train": {**train, "loss_mode": "v_alg1", "k_bins": 4}}, 0
    yield "train", {"data": _SQUARE, "time_sampler": _LOGIT_NORMAL, "train": train}, 0
    yield "train", {"data": _SPECTRUM, "train": train}, 0


def _sample_runs():
    for data, solver, net in itertools.product((_MANIFOLD, _ZERO_MODES), ("euler", "heun"), ("optimal_linear", "train")):
        sample = {"n_samples": 40, "steps": 20, "solver": solver, "net": net}
        if net == "optimal_linear":
            sample["k"] = 0.8
        yield "sample", {"data": data, "train": {"steps": 40, "batch": 16}, "sample": sample}, 0
    # binned k from k_init 0.9 has k(1 - t) + (1 - k) t below the floor 0.2 past t = 0.875
    yield "sample", {"data": _MANIFOLD, "clamp_floor": 0.2,
                     "train": {"steps": 40, "batch": 16, "k_init": 0.9, "k_bins": 4},
                     "sample": {"n_samples": 40, "steps": 20, "net": "train"}}, 0


def _target_runs():
    # a linear target, its coefficients given by the config, under the x loss and logit-normal time
    linear = {"kind": "linear", "phi": 0.7, "psi": -0.4}
    for flow in (_EXACT, _STOCHASTIC):
        yield "dynamics", {"data": _MANIFOLD, "loss": "x", "time_sampler": _LOGIT_NORMAL, "target": linear,
                           "dynamics": flow}, 0
    # and the named targets the k grid does not reach
    for target in ("epsilon", "v"):
        yield "dynamics", {"data": _MANIFOLD, "target": target, "dynamics": _EXACT}, 0


RUNS = [
    *_theory_runs(), *_dynamics_runs(), *_train_runs(), *_sample_runs(),
    # eigenvalues out of order, one repeated and zeros between them: theory groups them by eigenspace
    ("theory", {"data": _INTERLEAVED, "loss": "v", "time_sampler": _LOGIT_NORMAL}, 0),
    ("theory", {"data": _MANIFOLD, **_TAIL, "theory": {"k_points": 21}}, 0),
    ("train", {"data": _MANIFOLD, **_TAIL, "train": {"steps": 60, "batch": 32}}, 0),
    # and the flow, whose eigenvector blocks then have zero columns between them
    ("dynamics", {"data": _INTERLEAVED, "target": {"kind": "k", "k": 0.6},
                  "dynamics": {"mode": "exact", "steps": 200, "step_size": 0.5, "tol": 1e-6}}, 0),
    ("dynamics", {"data": _INTERLEAVED, "target": {"kind": "k", "k": 0.6},
                  "dynamics": {"mode": "stochastic", "steps": 40, "step_size": 0.3, "batch": 32, "tol": 10.0}}, 0),
    # the velocity loss: constant k under logit-normal time, binned k from k_init 0.9 with the
    # floor 0.2 active past t = 0.875, and samplers whose nets it trained, the second with that
    # floor active in both training and sampling
    ("train", {"data": _MANIFOLD, "time_sampler": _LOGIT_NORMAL,
               "train": {"steps": 60, "batch": 32, "loss_mode": "v_alg1"}}, 0),
    ("train", {"data": _MANIFOLD, "clamp_floor": 0.2,
               "train": {"steps": 60, "batch": 32, "loss_mode": "v_alg1", "k_bins": 4, "k_init": 0.9}}, 0),
    ("sample", {"data": _MANIFOLD, "train": {"steps": 40, "batch": 16, "loss_mode": "v_alg1"},
                "sample": {"n_samples": 40, "steps": 20, "net": "train"}}, 0),
    ("sample", {"data": _MANIFOLD, "clamp_floor": 0.2,
                "train": {"steps": 40, "batch": 16, "loss_mode": "v_alg1", "k_init": 0.9, "k_bins": 4},
                "sample": {"n_samples": 40, "steps": 20, "net": "train"}}, 0),
    *_target_runs(),
    # the oracle_flow benchmark's exact shape: every other run has D <= 12, and a change of the
    # flow's arithmetic can show only at large D, such as a sum that BLAS splits over threads
    ("dynamics", {"data": {"D": 256, "d": 16, "seed": 0}, "target": {"kind": "k", "k": 0.8},
                  "dynamics": {"mode": "exact", "steps": 150, "step_size": 0.5, "tol": 1e-6}}, 0),
    # a logit-normal measure too narrow for 64 quadrature nodes, which integrate 0.69 of its mass
    ("theory", {"time_sampler": {"kind": "logit_normal", "mu": 0.0, "sigma": 0.03}, "data": {"D": 16, "d": 4}}, 1),
    # steps above 2^53, which a float64 step column could not hold, and a binned trainer whose
    # history (7 columns, 585 rows a block) spans three CSV blocks
    ("dynamics", {"data": _MANIFOLD, "dynamics": {"mode": "exact", "steps": 10**17, "tol": 1e-6}}, 0),
    ("train", {"data": _MANIFOLD, "train": {"steps": 1200, "batch": 32, "k_bins": 4}}, 0),
    # frozen binned k: the trainer and a sampler whose net it trained leave every knot at k_init
    ("train", {"data": _MANIFOLD, "train": {"steps": 60, "batch": 32, "k_bins": 4, "k_trainable": False}}, 0),
    ("sample", {"data": _MANIFOLD, "train": {"steps": 40, "batch": 16, "k_bins": 4, "k_trainable": False},
                "sample": {"n_samples": 40, "steps": 20, "net": "train"}}, 0),
]


def _bench_oracle(index: int, D: int, d: int, k: float) -> tuple:
    # the oracle_flow benchmark's case: basis, then draws, from one fixed stream
    rng = np.random.default_rng(3000 + index)
    source = random_orthonormal_basis(D, d, rng)
    weight = equilibrium_weight(source, compute_moments(FLOW_MATCHING, k_target(k), U_LOSS, UNIFORM_MEASURE))
    return weight, source, k_target(k), 1 << 17, rng, U_LOSS, UNIFORM_MEASURE, None


def _spectrum_oracle() -> tuple:
    rng = np.random.default_rng(3100)
    source = GaussianSource(random_orthonormal_basis(9, 5, rng).eigenvectors, [3.0, 1.0, 1.0, 0.2, 0.0])
    weight = 0.3 * rng.standard_normal((9, 9))
    return weight, source, k_target(0.6), 3000, rng, U_LOSS, UNIFORM_MEASURE, None


def _logit_normal_oracle(seed: int, D: int, k: float, loss, mu: float, sigma: float, clamp_floor) -> tuple:
    rng = np.random.default_rng(seed)
    source = random_orthonormal_basis(D, 3, rng)
    weight = 0.3 * rng.standard_normal((D, D))
    measure = TimeMeasure("logit_normal", mu=mu, sigma=sigma)
    return weight, source, k_target(k), 2500, rng, loss, measure, clamp_floor


# name and arguments of lindyn._loss_observations, built when digested
ORACLE = [
    *((f"bench-D{D}-d{d}-k{k:g}", partial(_bench_oracle, index, D, d, k))
      for index, (D, d, k) in enumerate(((2, 1, 0.5), (8, 2, 0.25), (16, 4, 0.75), (32, 4, 1.0), (32, 16, 0.0)))),
    ("spectrum", _spectrum_oracle),
    # one case per loss but the u-loss; the x and epsilon cases' k-target is off the ends, so
    # their conversion denominator never vanishes and they need no clamp floor
    ("v-logit-normal", partial(_logit_normal_oracle, 3200, 12, 0.3, V_TARGET, -0.4, 0.9, 0.05)),
    ("x-logit-normal", partial(_logit_normal_oracle, 3300, 10, 0.6, X_TARGET, 0.2, 0.8, None)),
    ("epsilon-logit-normal", partial(_logit_normal_oracle, 3400, 10, 0.6, EPSILON_TARGET, 0.2, 0.8, None)),
]


def oracle_digest(arguments) -> str:
    """Digest of the oracle's observations, one per antithetic pair, for one case's arguments."""
    return hashlib.sha256(lindyn._loss_observations(*arguments()).tobytes()).hexdigest()


def _moments(arguments) -> tuple:
    """One oracle case's source and the moments of its target, loss, measure and clamp floor."""
    _, source, target, _, _, loss, measure, clamp_floor = arguments()
    return source, compute_moments(FLOW_MATCHING, target, loss, measure, clamp_floor=clamp_floor)


def weight_digest(arguments) -> str:
    """Digest of the equilibrium weight for one oracle case's source and moments."""
    return hashlib.sha256(equilibrium_weight(*_moments(arguments)).tobytes()).hexdigest()


def moments_digest(arguments) -> str:
    """Digest of one oracle case's moment set: its nine floats in field order."""
    return hashlib.sha256(np.array(list(vars(_moments(arguments)[1]).values())).tobytes()).hexdigest()


def digest(command: str, cfg: dict, seed: int = 11) -> tuple[int, str]:
    """Run one command on a config in a fresh directory: its exit code and output digest."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config = root / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(config), "--out", str(root / "out"), "--seed", str(seed)])
        sha = hashlib.sha256()
        files = sorted((root / "out").iterdir()) if (root / "out").is_dir() else []
        for path in files:
            sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        sha.update(out.getvalue().encode() + b"\0" + err.getvalue().encode())
    return code, sha.hexdigest()


if __name__ == "__main__":
    for index, (command, cfg, _) in enumerate(RUNS):
        code, sha = digest(command, cfg)
        print(f"{index} {command} {code} {sha}")
    for index, (name, arguments) in enumerate(ORACLE, start=len(RUNS)):
        print(f"{index} oracle {name} {oracle_digest(arguments)}")
    for index, (name, arguments) in enumerate(ORACLE, start=len(RUNS) + len(ORACLE)):
        print(f"{index} weight {name} {weight_digest(arguments)}")
    for index, (name, arguments) in enumerate(ORACLE, start=len(RUNS) + 2 * len(ORACLE)):
        print(f"{index} moments {name} {moments_digest(arguments)}")
