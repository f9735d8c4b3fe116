"""The benchmark's workloads: inputs made from a seed, the tasks of one round, their checks.

Every workload is a closed loop with one caller: a round runs the workload's
tasks one after another, each starting when the previous one has ended, and
a run repeats the same round until its time is up.  The CLI tasks go through
``kdiff_lab.cli.main`` with JSON configs written at set-up, because the
config keys are the interface least likely to change; only the Monte Carlo
oracle, which has no CLI entry point, calls public ``kdiff_lab`` names.
Why each workload exists, and which layers it uses and bypasses, is in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import kdiff_lab
from kdiff_lab import cli

# The acceptance suite's tolerances, which no check here may loosen.
K_TOLERANCE = 0.03
ORACLE_SE = 3.0

# Monte Carlo oracle cases (D, d, k), all with D <= 32 as in the acceptance
# suite.  Their draws use fixed streams, as the suite's do: a 3-SE test on
# fresh draws fails 0.27% of the time per case, so seed-driven draws would
# fail some run of a long series.  The seed drives the other tasks.
ORACLE_CASES = ((2, 1, 0.5), (8, 2, 0.25), (16, 4, 0.75), (32, 4, 1.0), (32, 16, 0.0))
ORACLE_STREAM = 3000

# Sizes of the full benchmark and of the smoke test.  The tiny sizes keep
# every check meaningful: enough steps for k and the flow to converge.
FULL = {
    "train_D": 64, "train_d": 4, "dense_D": 8, "train_steps": 1000, "k_bins": 16,
    "exact_D": 256, "exact_d": 16, "exact_steps": 150,
    "stoch_D": 64, "stoch_d": 4, "stoch_steps": 300,
    "oracle_samples": 1 << 18,
    "sample_D": 64, "sample_d": 4, "n_samples": 4000, "k_points": 101,
}
TINY = {
    "train_D": 8, "train_d": 2, "dense_D": 4, "train_steps": 400, "k_bins": 4,
    "exact_D": 16, "exact_d": 4, "exact_steps": 150,
    "stoch_D": 8, "stoch_d": 2, "stoch_steps": 100,
    "oracle_samples": 1 << 12,
    "sample_D": 16, "sample_d": 4, "n_samples": 50, "k_points": 21,
}


@dataclass
class Task:
    """One unit of work in a round.

    ``run`` does the work and returns its exit status; ``check`` returns the
    problems found in its results (none when they are correct); ``digest``
    hashes the results, so that repeats with the same seed can be compared.
    """

    name: str
    kind: str
    run: Callable[[], int]
    check: Callable[[], list[str]]
    digest: Callable[[], str]
    reset: Callable[[], None] = lambda: None


def _files_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cli_task(work: Path, name: str, kind: str, command: str, cfg: dict, seed: int, check) -> Task:
    """A task that runs one CLI subcommand on a config written now, at set-up."""
    task_dir = work / name
    task_dir.mkdir(parents=True, exist_ok=True)
    config = task_dir / "config.json"
    config.write_text(json.dumps(cfg, indent=1, sort_keys=True), encoding="utf-8")
    out = task_dir / "out"
    argv = [command, "--config", str(config), "--seed", str(seed), "--out", str(out)]

    def run() -> int:
        # the CLI reports on stdout/stderr; a failure shows in the exit status
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def reset() -> None:
        shutil.rmtree(out, ignore_errors=True)

    return Task(name, kind, run, lambda: check(out, cfg), lambda: _files_digest(out), reset)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


def _check_learned_k(out: Path, cfg: dict) -> list[str]:
    """u-loss run: the learned k lands within the tolerance of D/(D+d)."""
    D, d = cfg["data"]["D"], cfg["data"]["d"]
    expected = D / (D + d)
    final_k = json.loads((out / "train_summary.json").read_text())["final_k"]
    if not abs(final_k - expected) <= K_TOLERANCE:
        return [f"final_k {final_k:.6f} is more than {K_TOLERANCE} from D/(D+d) = {expected:.6f}"]
    return []


def _check_v_alg1(out: Path, cfg: dict) -> list[str]:
    """v_alg1 run with binned k: finite final loss and every k probe inside (0, 1).

    The summary's abs_gap is not used: it compares against the theory of the
    top-level loss, not of the train.loss_mode that ran.
    """
    header, rows = _read_csv(out / "history.csv")
    last = dict(zip(header, rows[-1]))
    probes = [v for key, v in last.items() if key.startswith("k_t")]
    problems = []
    if not math.isfinite(last["loss"]):
        problems.append(f"final loss {last['loss']} is not finite")
    if not probes or not all(0.0 < v < 1.0 for v in probes):
        problems.append(f"final k probes {probes} not all inside (0, 1)")
    return problems


def _check_converged(out: Path, cfg: dict) -> list[str]:
    summary = json.loads((out / "dynamics_summary.json").read_text())
    if summary["converged"] is not True:
        return [f"dynamics did not converge: {summary}"]
    return []


def _check_theory(out: Path, cfg: dict) -> list[str]:
    """The theory k* lies within one grid step of the argmin of theory.csv."""
    header, rows = _read_csv(out / "theory.csv")
    k_grid, total = rows[:, header.index("k")], rows[:, header.index("delta_total")]
    k_star = json.loads((out / "theory_summary.json").read_text())["k_star"]
    step = 1.0 / (cfg["theory"]["k_points"] - 1)
    grid_best = float(k_grid[np.argmin(total)])
    if not abs(k_star - grid_best) <= step:
        return [f"k_star {k_star:.6f} is more than one grid step from the grid argmin {grid_best:.6f}"]
    return []


def _check_samples(out: Path, cfg: dict) -> list[str]:
    """Samples are finite, of the configured shape, and leave the off-manifold space."""
    _, rows = _read_csv(out / "samples.csv")
    diag = json.loads((out / "diagnostics.json").read_text())
    problems = []
    expected_shape = (cfg["sample"]["n_samples"], cfg["data"]["D"])
    if rows.shape != expected_shape:
        problems.append(f"samples have shape {rows.shape}, expected {expected_shape}")
    if not np.all(np.isfinite(rows)):
        problems.append("samples are not all finite")
    if not diag["off_manifold_fraction_t1"] < diag["off_manifold_fraction_t0"]:
        problems.append(
            "off-manifold fraction did not fall: "
            f"{diag['off_manifold_fraction_t0']} -> {diag['off_manifold_fraction_t1']}"
        )
    return problems


def _seed_stream(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def build_flagship_train(seed: int, work: Path, size: dict) -> list[Task]:
    """Acceptance criterion 5 through CLI train, plus the v_alg1 / binned-k path."""
    draw = _seed_stream(seed, "flagship_train")
    train = {
        "loss_mode": "u", "optimizer": "adam", "lr": 1e-2, "beta1": 0.9, "beta2": 0.95,
        "batch": 256, "steps": size["train_steps"], "k_trainable": True, "k_init": 0.5,
    }
    runs = [(f"sparse_{i}", size["train_D"], size["train_d"], train) for i in range(3)]
    runs.append(("dense", size["dense_D"], size["dense_D"], train))
    runs.append(
        ("v_alg1", size["train_D"], size["train_d"], {**train, "loss_mode": "v_alg1", "k_bins": size["k_bins"]})
    )
    tasks = []
    for name, D, d, section in runs:
        cfg = {"loss": "u", "data": {"D": D, "d": d, "seed": draw.randrange(1 << 31)}, "train": section}
        check = _check_v_alg1 if section["loss_mode"] == "v_alg1" else _check_learned_k
        tasks.append(_cli_task(work, name, "train", "train", cfg, draw.randrange(1 << 31), check))
    return tasks


def _oracle_task(size: dict) -> Task:
    """Monte Carlo loss at the equilibrium weight against the closed form, within 3 SE."""
    results: list[tuple[float, float]] = []

    def run() -> int:
        results.clear()
        for index, (D, d, k) in enumerate(ORACLE_CASES):
            rng = np.random.default_rng(ORACLE_STREAM + index)
            basis = kdiff_lab.random_orthonormal_basis(D, d, rng)
            moments = kdiff_lab.compute_moments(
                kdiff_lab.FLOW_MATCHING, kdiff_lab.k_target(k), kdiff_lab.U_LOSS, kdiff_lab.UNIFORM_MEASURE
            )
            weight = kdiff_lab.equilibrium_weight(basis, moments)
            results.append(kdiff_lab.monte_carlo_loss(weight, basis, k, size["oracle_samples"], rng))
        return 0

    def check() -> list[str]:
        problems = []
        for (D, d, k), (estimate, se) in zip(ORACLE_CASES, results):
            expected = kdiff_lab.optimal_loss_poly(k, kdiff_lab.DimensionPair(D, d))
            if not abs(estimate - expected) <= ORACLE_SE * se:
                problems.append(f"(D={D}, d={d}, k={k}): estimate {estimate} vs {expected}, SE {se}")
        if len(results) != len(ORACLE_CASES):
            problems.append(f"{len(results)} of {len(ORACLE_CASES)} oracle cases ran")
        return problems

    def digest() -> str:
        return hashlib.sha256(repr(results).encode()).hexdigest()

    return Task("oracle", "oracle", run, check, digest)


def build_oracle_flow(seed: int, work: Path, size: dict) -> list[Task]:
    """Acceptance criterion 2 (Monte Carlo oracle) plus CLI dynamics, exact and stochastic."""
    draw = _seed_stream(seed, "oracle_flow")
    exact = {
        "data": {"D": size["exact_D"], "d": size["exact_d"], "seed": draw.randrange(1 << 31)},
        "target": {"kind": "k", "k": round(draw.uniform(0.25, 1.0), 6)},
        "dynamics": {"mode": "exact", "step_size": 0.5, "steps": size["exact_steps"], "tol": 1e-6},
    }
    # Stochastic steps settle at a noise floor (about 0.5 in both modes at
    # D=64, batch 256, step 0.5), so convergence is tested at 1.0, a sixth of
    # the starting distance 0.75 * sqrt(D - d) of the perpendicular mode.
    stochastic = {
        "data": {"D": size["stoch_D"], "d": size["stoch_d"], "seed": draw.randrange(1 << 31)},
        "target": {"kind": "k", "k": 0.5},
        "dynamics": {
            "mode": "stochastic", "step_size": 0.5, "steps": size["stoch_steps"], "batch": 256, "tol": 1.0,
        },
    }
    return [
        _oracle_task(size),
        _cli_task(work, "exact", "dynamics", "dynamics", exact, draw.randrange(1 << 31), _check_converged),
        _cli_task(
            work, "stochastic", "dynamics", "dynamics", stochastic, draw.randrange(1 << 31), _check_converged
        ),
    ]


def build_theory_sample(seed: int, work: Path, size: dict) -> list[Task]:
    """CLI theory and sample under a config no closed form covers."""
    draw = _seed_stream(seed, "theory_sample")
    cfg = {
        "loss": "v",
        "time_sampler": {
            "kind": "logit_normal",
            "mu": round(draw.uniform(-1.0, 0.0), 6),
            "sigma": round(draw.uniform(0.6, 1.2), 6),
        },
        "interval": [0.05, 0.95],
        "data": {"D": size["sample_D"], "d": size["sample_d"], "seed": draw.randrange(1 << 31)},
        "theory": {"k_points": size["k_points"]},
        "sample": {
            "n_samples": size["n_samples"], "steps": 50, "solver": "heun", "net": "optimal_linear",
            "k": round(draw.uniform(0.5, 0.9), 6),
        },
    }
    cli_seed = draw.randrange(1 << 31)
    return [
        _cli_task(work, "theory", "theory", "theory", cfg, cli_seed, _check_theory),
        _cli_task(work, "sample", "sample", "sample", cfg, cli_seed, _check_samples),
    ]


# workload name -> builder(seed, work directory, sizes) of the round's tasks
WORKLOADS = {
    "flagship_train": build_flagship_train,
    "oracle_flow": build_oracle_flow,
    "theory_sample": build_theory_sample,
}
TASK_KINDS = ("train", "dynamics", "oracle", "theory", "sample")
