"""Experiment orchestration: config parsing, subcommand dispatch, CSV/JSON emission.

Usage:
    kdiff-lab theory|dynamics|train|sample --config <path> [--seed N] [--out DIR]

The config is a single JSON file with nested sections; unknown keys are
rejected before anything runs.  One global seed fans out to per-module
streams through a keyed derivation, so adding a consumer never perturbs the
draws of existing ones.  All numeric output uses 17 significant digits
("." decimal separator), which round-trips doubles exactly: re-running a
command with the same config and seed produces byte-identical files.

CSVs are plot-ready; no figures are rendered here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analytic, geometry, kdiff, lindyn, sampler
from .errors import ConfigError, DimError, KDiffLabError
from .schedule import (
    EPSILON_LOSS,
    EPSILON_TARGET,
    FLOW_MATCHING,
    U_LOSS,
    V_LOSS,
    V_TARGET,
    X_LOSS,
    X_TARGET,
    TargetSpec,
    TimeMeasure,
    constant_fn,
    k_target,
)
from .seeding import derive_rng

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_CHECK_FAILED = 2

_TOP_KEYS = {
    "seed",
    "output_dir",
    "interval",
    "process",
    "target",
    "loss",
    "time_sampler",
    "data",
    "theory",
    "dynamics",
    "train",
    "sample",
}
_SECTION_KEYS = {
    "target": {"kind", "k", "phi", "psi"},
    "time_sampler": {"kind", "mu", "sigma"},
    "data": {"D", "d", "seed", "spectrum"},
    "theory": {"k_points"},
    "dynamics": {"step_size", "steps", "mode", "batch", "tol"},
    "train": {
        "loss_mode",
        "optimizer",
        "lr",
        "beta1",
        "beta2",
        "adam_eps",
        "batch",
        "steps",
        "clamp_floor",
        "k_trainable",
        "k_init",
        "k_bins",
        "stop_grad_target",
    },
    "sample": {"n_samples", "steps", "solver", "clamp_floor", "net", "k"},
}

_LOSSES = {"u": U_LOSS, "x": X_LOSS, "epsilon": EPSILON_LOSS, "v": V_LOSS}
_TARGETS = {"epsilon": EPSILON_TARGET, "x": X_TARGET, "v": V_TARGET}


def load_config(path) -> dict:
    """Read and validate a JSON config, rejecting unknown keys and sections
    that are not objects (``target`` may also be a name)."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for section, allowed in _SECTION_KEYS.items():
        if section not in cfg or (section == "target" and isinstance(cfg[section], str)):
            continue
        value = cfg[section]
        if not isinstance(value, dict):
            raise ConfigError(f"section {section!r} must be an object, got {json.dumps(value)}")
        bad = set(value) - allowed
        if bad:
            raise ConfigError(f"unknown keys in section {section!r}: {sorted(bad)}")
    return cfg


def _build_process(cfg):
    name = cfg.get("process", "flow_matching")
    if name != "flow_matching":
        raise ConfigError(f"unsupported process {name!r} (only flow_matching ships)")
    return FLOW_MATCHING


def _build_target(cfg, default_k: float = 1.0) -> TargetSpec:
    spec = cfg.get("target", {"kind": "k", "k": default_k})
    if isinstance(spec, str):
        if spec not in _TARGETS:
            raise ConfigError(f"unknown target {spec!r}")
        return _TARGETS[spec]
    kind = spec.get("kind", "k")
    if kind in _TARGETS:
        return _TARGETS[kind]
    if kind == "k":
        return k_target(float(spec.get("k", default_k)))
    if kind == "linear":
        if "phi" not in spec or "psi" not in spec:
            raise ConfigError("linear target needs constant 'phi' and 'psi'")
        phi, psi = float(spec["phi"]), float(spec["psi"])
        return TargetSpec(constant_fn(phi), constant_fn(psi), name=f"linear({phi:g},{psi:g})")
    raise ConfigError(f"unknown target kind {kind!r}")


def _build_loss(cfg):
    name = cfg.get("loss", "u")
    if name not in _LOSSES:
        raise ConfigError(f"unknown loss {name!r}")
    return _LOSSES[name]


def _build_measure(cfg) -> TimeMeasure:
    spec = cfg.get("time_sampler", {"kind": "uniform"})
    kind = spec.get("kind", "uniform")
    if kind not in ("uniform", "logit_normal"):
        raise ConfigError(f"unknown time sampler {kind!r}")
    try:
        interval = tuple(cfg.get("interval", (0.0, 1.0)))
        if kind == "uniform":
            return TimeMeasure(kind="uniform", interval=interval)
        return TimeMeasure(
            kind="logit_normal",
            interval=interval,
            mu=float(spec.get("mu", 0.0)),
            sigma_ln=float(spec.get("sigma", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"interval/time_sampler: {exc}") from exc


def _data_section(cfg) -> dict:
    """The data section with its defaults, and D, d and seed (when set) as ints."""
    data = {"D": 16, "d": 4, **cfg.get("data", {})}
    for key in ("D", "d", "seed"):
        if key in data:
            try:
                data[key] = int(data[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"data: {key} must be an integer, got {data[key]!r}") from exc
    return data


def _integer_columns(row, values: tuple) -> tuple:
    """Which of a row's values are written as integers."""
    if isinstance(row, np.ndarray) and row.dtype.kind in "biuf":
        return (row.dtype.kind != "f",) * len(values)
    return tuple(isinstance(v, (int, np.integer)) for v in values)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write the header and one line per row, streamed row by row.

    Integers are written as integers and every other value with 17
    significant digits.  The first row fixes which columns are integers, so
    the row format is built once and each row is formatted by a single
    ``%``; a later row that differs raises ``ValueError`` and leaves no file.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            kinds = line = None
            for i, row in enumerate(rows):
                values = tuple(row.tolist() if isinstance(row, np.ndarray) else row)
                row_kinds = _integer_columns(row, values)
                if line is None:
                    kinds = row_kinds
                    line = ",".join("%d" if is_int else "%.17g" for is_int in kinds) + "\n"
                elif row_kinds != kinds:
                    raise ValueError(
                        f"{path.name}: row {i} does not match the first row's integer "
                        "and float columns"
                    )
                fh.write(line % values)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _closed_form_applies(cfg) -> bool:
    # D/(D+d) and D/(D+trace) hold for flow matching + uniform t on [0,1] + unit weighting
    measure = _build_measure(cfg)
    return (
        _build_loss(cfg).follows_target
        and measure.kind == "uniform"
        and measure.interval == (0.0, 1.0)
        and cfg.get("process", "flow_matching") == "flow_matching"
    )


def _data_spectrum(cfg: dict) -> analytic.Spectrum:
    """The eigenvalues of the data second moment, checked against the config.

    Manifold data is the spectrum with d unit and D - d zero eigenvalues; a
    ``data.spectrum`` is taken as given, and must have D entries when the
    config sets ``data.D``.
    """
    data = _data_section(cfg)
    if data.get("spectrum") is None:
        ambient, intrinsic = data["D"], data["d"]
        if not 1 <= intrinsic <= ambient:
            raise DimError(f"need 1 <= d <= D, got d={intrinsic}, D={ambient}")
        return analytic.Spectrum(np.repeat([1.0, 0.0], [intrinsic, ambient - intrinsic]))
    try:
        spectrum = analytic.Spectrum(np.asarray(data["spectrum"], dtype=np.float64))
    except ValueError as exc:
        raise ConfigError(f"data.spectrum: {exc}") from exc
    if "D" in cfg.get("data", {}) and spectrum.dim != data["D"]:
        raise DimError(f"data.spectrum has {spectrum.dim} eigenvalues but data.D is {data['D']}")
    return spectrum


def _theory(cfg: dict):
    """A config's equilibrium-loss theory: (spectrum, CSV name, header, k -> row, k*).

    Manifold and colored data run the same per-mode losses.  A manifold row
    also splits the total into its parallel and perpendicular parts: the d
    unit modes and the D - d zero modes, each loss computed once and
    weighted by its count.  k* is D / (D + trace) where that closed form
    holds, and a golden-section search of the rows' totals elsewhere.
    """
    process, loss, measure = _build_process(cfg), _build_loss(cfg), _build_measure(cfg)
    spectrum = _data_spectrum(cfg)
    if _data_section(cfg).get("spectrum") is None:
        csv_name, parts = "theory.csv", ["delta_parallel", "delta_perpendicular"]
        modes = np.array([1.0, 0.0])
        weights = np.array([spectrum.trace, spectrum.dim - spectrum.trace])
    else:
        csv_name, parts = "theory_colored.csv", []
        modes, weights = spectrum.eigenvalues, 1.0

    def row(k: float) -> tuple:
        moments = analytic.compute_moments(process, k_target(k), loss, measure)
        losses = weights * analytic.colored_mode_losses(modes, moments)
        return (k, float(np.sum(losses)), *losses[: len(parts)])

    if _closed_form_applies(cfg):
        k_star = analytic.colored_optimal_k(spectrum)
    else:
        k_star = analytic.argmin_k(lambda k: row(k)[1])
    return spectrum, csv_name, ["k", "delta_total", *parts], row, k_star


def _data_source(cfg: dict, seed: int, command: str):
    """What a command draws data from: a random D x d manifold basis made from
    the data seed, or the colored covariance of ``data.spectrum``, which only
    ``train`` accepts."""
    data = _data_section(cfg)
    spectrum = _data_spectrum(cfg)
    if data.get("spectrum") is not None:
        if command != "train":
            raise ConfigError(f"{command} runs on manifold data only; drop data.spectrum")
        return geometry.ColoredCovariance.from_spectrum(spectrum.eigenvalues)
    basis_rng = derive_rng(data.get("seed", seed), "geometry", "basis")
    return geometry.random_orthonormal_basis(spectrum.dim, data["d"], basis_rng)


def cmd_theory(cfg: dict, out: Path, seed: int) -> int:
    """Sweep the equilibrium loss over a k grid and report its minimiser."""
    k_points = cfg.get("theory", {}).get("k_points", 101)
    try:
        k_points = int(k_points)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"theory: k_points must be an integer, got {k_points!r}") from exc
    if k_points < 2:
        raise ConfigError(f"theory.k_points must be >= 2, got {k_points}")
    _, csv_name, header, row, k_star = _theory(cfg)
    write_csv(out / csv_name, header, [row(k) for k in np.linspace(0.0, 1.0, k_points)])
    write_json(out / "theory_summary.json", {"k_star": k_star, "delta_at_k_star": row(k_star)[1]})
    print(f"theory: k_star = {k_star:.6f}")
    return _EXIT_OK


def cmd_dynamics(cfg: dict, out: Path, seed: int) -> int:
    """Integrate the linear-model gradient flow and check convergence to equilibrium."""
    process = _build_process(cfg)
    loss = _build_loss(cfg)
    measure = _build_measure(cfg)
    target = _build_target(cfg, default_k=1.0)
    dyn = cfg.get("dynamics", {})
    try:
        flow = lindyn.FlowConfig(
            step_size=float(dyn.get("step_size", 0.5)),
            steps=int(dyn.get("steps", 200)),
            mode=dyn.get("mode", "exact"),
            batch=int(dyn.get("batch", 256)),
        )
        tol = float(dyn.get("tol", 1e-6))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dynamics: {exc}") from exc

    basis = _data_source(cfg, seed, "dynamics")
    weight0 = np.zeros((basis.ambient_dim, basis.ambient_dim))
    rng = derive_rng(seed, "lindyn", "stochastic") if flow.mode == "stochastic" else None
    trajectory = lindyn.run_gradient_flow(
        weight0, basis, flow, process, target, loss, measure, rng=rng
    )

    rows = [(rec.step, rec.loss, rec.dist_par, rec.dist_perp) for rec in trajectory]
    write_csv(out / "dynamics.csv", ["step", "loss", "dist_par", "dist_perp"], rows)
    final = trajectory[-1]
    converged = final.dist_par < tol and final.dist_perp < tol
    write_json(
        out / "dynamics_summary.json",
        {
            "converged": converged,
            "final_dist_par": final.dist_par,
            "final_dist_perp": final.dist_perp,
            "tol": tol,
        },
    )
    if not converged:
        print(
            "check failed: convergence_to_equilibrium "
            f"(dist_par {final.dist_par:.3e}, dist_perp {final.dist_perp:.3e}, tol {tol:g})",
            file=sys.stderr,
        )
        return _EXIT_CHECK_FAILED
    print(f"dynamics: converged (dist_par {final.dist_par:.3e}, dist_perp {final.dist_perp:.3e})")
    return _EXIT_OK


def _trainer(cfg: dict, seed: int) -> tuple[kdiff.TrainConfig, kdiff.KParam]:
    """The training run a config describes and the k parameter it learns."""
    tr = cfg.get("train", {})
    measure = _build_measure(cfg)
    try:
        config = kdiff.TrainConfig(
            loss_mode=tr.get("loss_mode", "u"),
            optimizer=tr.get("optimizer", "adam"),
            lr=float(tr.get("lr", 1e-2)),
            beta1=float(tr.get("beta1", 0.9)),
            beta2=float(tr.get("beta2", 0.95)),
            adam_eps=float(tr.get("adam_eps", 1e-8)),
            batch=int(tr.get("batch", 256)),
            steps=int(tr.get("steps", 20_000)),
            seed=seed,
            clamp_floor=float(tr.get("clamp_floor", 0.05)),
            k_trainable=bool(tr.get("k_trainable", True)),
            k_init=float(tr.get("k_init", 0.5)),
            stop_grad_target=bool(tr.get("stop_grad_target", False)),
            measure=measure,
        )
        k_bins = tr.get("k_bins")
        kparam = kdiff.make_kparam(config, n_bins=None if k_bins is None else int(k_bins))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}") from exc
    return config, kparam


def cmd_train(cfg: dict, out: Path, seed: int) -> int:
    """Train the toy model (optionally with a trainable k) and summarise the fixed point."""
    config, kparam = _trainer(cfg, seed)
    # loss_mode "u" trains the plain target MSE whatever the top-level loss
    # says, so its k* is the u-loss optimum; v_alg1 trains a velocity-weighted
    # loss, which the theory does not cover
    k_star = _theory({**cfg, "loss": "u"})[4] if config.loss_mode == "u" else None
    source = _data_source(cfg, seed, "train")
    net = kdiff.PureLinear.zeros(_data_spectrum(cfg).dim)
    history = kdiff.train(net, kparam, source, config)

    if kparam.is_binned:
        header = ["step", "loss"] + [f"k_t{p:g}" for p in history.probe_points]
        rows = [
            (int(s), l, *kv) for s, l, kv in zip(history.steps, history.losses, history.k_values)
        ]
        final_k = float(history.k_values[-1][history.probe_points.size // 2])
    else:
        header = ["step", "loss", "k"]
        rows = [
            (int(s), l, kv) for s, l, kv in zip(history.steps, history.losses, history.k_values)
        ]
        final_k = float(history.k_values[-1])
    write_csv(out / "history.csv", header, rows)

    summary = {"final_k": final_k}
    if k_star is None:
        report = f"theory k* does not apply (loss_mode {config.loss_mode})"
    else:
        summary["theory_k_star"] = k_star
        report = f"theory k_star = {k_star:.4f}"
        if config.k_trainable:
            summary["abs_gap"] = abs(final_k - k_star)
            report += f", gap = {summary['abs_gap']:.4f}"
        else:
            report += " (k frozen)"
    write_json(out / "train_summary.json", summary)
    print(f"train: final_k = {final_k:.4f}, {report}")
    return _EXIT_OK


def cmd_sample(cfg: dict, out: Path, seed: int) -> int:
    """Integrate the sampling ODE and report off-manifold energy diagnostics."""
    smp = cfg.get("sample", {})
    try:
        n_samples = int(smp.get("n_samples", 1000))
        run = sampler.SampleRun(
            steps=int(smp.get("steps", 50)),
            solver=smp.get("solver", "heun"),
            clamp_floor=float(smp.get("clamp_floor", 0.05)),
        )
        target = k_target(smp.get("k", 0.5))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sample: {exc}") from exc
    if n_samples < 0:
        raise ConfigError(f"sample.n_samples must be >= 0, got {n_samples}")

    basis = _data_source(cfg, seed, "sample")

    net_kind = smp.get("net", "optimal_linear")
    if net_kind == "optimal_linear":
        moments = analytic.compute_moments(
            _build_process(cfg), target, _build_loss(cfg), _build_measure(cfg)
        )
        net = kdiff.PureLinear(lindyn.equilibrium_weight(basis, moments))
        kparam = target.k
    elif net_kind == "train":
        config, kparam = _trainer(cfg, seed)
        net = kdiff.PureLinear.zeros(basis.ambient_dim)
        kdiff.train(net, kparam, basis, config)
    else:
        raise ConfigError(f"unknown sample net {net_kind!r}")

    rng = derive_rng(seed, "sampler", "noise")
    z0 = rng.standard_normal((n_samples, basis.ambient_dim))
    z1 = sampler.integrate(run, net, kparam, z0) if n_samples else z0

    header = [f"x{i}" for i in range(basis.ambient_dim)]
    write_csv(out / "samples.csv", header, z1)

    def off_manifold_fraction(z: np.ndarray):
        if len(z) == 0:
            return None
        perp = z - z @ basis.projector()
        return float(np.sum(perp * perp) / np.sum(z * z))

    diagnostics = {
        "n_samples": n_samples,
        "solver": run.solver,
        "steps": run.steps,
        "off_manifold_fraction_t0": off_manifold_fraction(z0),
        "off_manifold_fraction_t1": off_manifold_fraction(z1),
    }
    write_json(out / "diagnostics.json", diagnostics)
    print(
        "sample: off-manifold fraction "
        f"{diagnostics['off_manifold_fraction_t0']} -> {diagnostics['off_manifold_fraction_t1']}"
    )
    return _EXIT_OK


_COMMANDS = {
    "theory": cmd_theory,
    "dynamics": cmd_dynamics,
    "train": cmd_train,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kdiff-lab",
        description="Optimal diffusion prediction-target laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0] if fn.__doc__ else None)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out = Path(args.out if args.out is not None else cfg.get("output_dir", "."))
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out, seed)
    except KDiffLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_ERROR


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
