"""Experiment orchestration: config parsing, subcommand dispatch, CSV/JSON emission.

Usage:
    kdiff-lab theory|dynamics|train|sample --config <path> [--seed N] [--out DIR]

The config is a single JSON file with nested sections.  ``load_config``
checks every key of every section against one schema and builds the typed
``Config`` the subcommands read, so bad input fails before any subcommand
runs.  One global seed fans out to per-module streams through a keyed
derivation, so adding a consumer never perturbs the draws of existing ones.
All numeric output uses 17 significant digits ("." decimal separator), which
round-trips doubles exactly: re-running a command with the same config, seed
and BLAS thread count produces byte-identical files.

CSVs are plot-ready; no figures are rendered here.
"""

from __future__ import annotations

import argparse
import builtins
import dataclasses
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic, geometry, kdiff, lindyn, sampler
from .errors import ConfigError, DimError, KDiffLabError, NonFiniteState
from .schedule import (
    EPSILON_TARGET,
    FLOW_MATCHING,
    U_LOSS,
    V_TARGET,
    X_TARGET,
    TargetSpec,
    TimeMeasure,
    k_target,
)
from .seeding import derive_rng

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_CHECK_FAILED = 2

_TARGETS = {"epsilon": EPSILON_TARGET, "x": X_TARGET, "v": V_TARGET}
# a loss is the MSE of a named target, or the regressed target's own (u)
_LOSSES = {"u": U_LOSS, **_TARGETS}
_NETS = {"optimal_linear": "optimal_linear", "train": "train"}


def _fields_of(cls, skip: tuple[str, ...] = ()) -> dict:
    """Schema entries for a library dataclass's fields, but those in ``skip``:
    each typed by its annotation, an optional one by the type it takes, with the field's default."""
    fields = (f for f in dataclasses.fields(cls) if f.name not in skip)
    return {f.name: (getattr(builtins, f.type.removesuffix(" | None")), f.default) for f in fields}


# Every accepted key, by section ("" is the top level), with its JSON type and
# default.  A dict type is a choice of names, each standing for its value.  A
# None default also accepts an explicit null.
_SCHEMA = {
    "": {
        "seed": (int, 0),
        "output_dir": (str, "."),
        "loss": (_LOSSES, "u"),
        "interval": (list, list(TimeMeasure.interval)),
        # one floor for the velocity conversion, in training and in sampling
        "clamp_floor": (float, kdiff.CLAMP_FLOOR),
    },
    "target": {"kind": (str, "k"), "k": (float, 1.0), "phi": (float, None), "psi": (float, None)},
    # the interval is the top level's
    "time_sampler": _fields_of(TimeMeasure, skip=("interval",)),
    "data": {"D": (int, 16), "d": (int, 4), "seed": (int, None), "spectrum": (list, None)},
    "theory": {"k_points": (int, 101)},
    "dynamics": {
        "step_size": (float, 0.5),
        "steps": (int, 200),
        **_fields_of(lindyn.FlowConfig, skip=("step_size", "steps")),
        "tol": (float, 1e-6),
    },
    # the run seed, time measure and clamp floor are the top level's
    "train": _fields_of(kdiff.TrainConfig, skip=("seed", "measure", "clamp_floor")),
    "sample": {
        **_fields_of(sampler.SampleRun, skip=("clamp_floor",)),
        "n_samples": (int, 1000),
        "net": (_NETS, "optimal_linear"),
        "k": (float, 0.5),
    },
}
# the least value of each integer key that has one, and the largest of all:
# no array can have more elements than a numpy index can count
_LEAST = {"theory.k_points": 2, "sample.n_samples": 0}
_INT_MAX = int(np.iinfo(np.intp).max)
_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
    list: "a list of numbers",
}


@dataclass(frozen=True)
class Config:
    """A checked config with every section built and every default filled in."""

    seed: int
    output_dir: str
    loss: TargetSpec | None  # U_LOSS (None) for the target's own MSE
    measure: TimeMeasure
    target: TargetSpec
    spectrum: analytic.Spectrum
    manifold_dim: int | None  # d of manifold data; None for a data.spectrum
    data_seed: int
    k_points: int
    flow: lindyn.FlowConfig
    tol: float
    train: kdiff.TrainConfig
    sample: sampler.SampleRun
    n_samples: int
    net: str
    sample_k: float

    @property
    def closed_form(self) -> bool:
        """Whether D / (D + trace) is the flow-matching u-loss k*: uniform t on [0, 1]."""
        return self.measure.kind == "uniform" and self.measure.interval == (0.0, 1.0)


def _typed(path: str, value, kind: type | dict, nullable: bool = False):
    """A JSON value checked against its key's type and converted to it.

    Integer keys take integral numbers (3.0 is 3), number keys finite
    numbers, bool keys only true or false; a bool is never a number.
    """
    if value is None and nullable:
        return None
    if isinstance(kind, dict):
        if isinstance(value, str) and value in kind:
            return kind[value]
        raise ConfigError(f"{path} must be one of {sorted(kind)}, got {json.dumps(value)}")
    if kind is list and isinstance(value, list):
        return [_typed(f"{path}[{i}]", v, float) for i, v in enumerate(value)]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and is_number and (isinstance(value, int) or value.is_integer()):
        if int(value) < _LEAST.get(path, int(value)):
            raise ConfigError(f"{path} must be >= {_LEAST[path]}, got {int(value)}")
        if int(value) > _INT_MAX:
            raise ConfigError(f"{path} must be <= {_INT_MAX}, got {json.dumps(value)}")
        return int(value)
    if kind is float and is_number and abs(value) <= sys.float_info.max:
        return float(value)
    if kind in (bool, str) and isinstance(value, kind):
        return value
    raise ConfigError(f"{path} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}")


def _section(raw: dict, name: str) -> dict:
    """A section's values checked against the schema, with every default filled in."""
    if name:
        values, prefix = raw.get(name, {}), f"{name}."
        if not isinstance(values, dict):
            raise ConfigError(f"section {name!r} must be an object, got {json.dumps(values)}")
        unknown = set(values) - set(_SCHEMA[name])
    else:
        values, prefix = raw, ""
        unknown = set(values) - set(_SCHEMA[""]) - set(_SCHEMA)
    if unknown:
        where = f" in section {name!r}" if name else ""
        raise ConfigError(f"unknown config keys{where}: {sorted(unknown)}")
    return {
        key: _typed(prefix + key, values.get(key, default), kind, default is None)
        for key, (kind, default) in _SCHEMA[name].items()
    }


def _built(section: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, a value it rejects reported as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _target(raw: dict) -> TargetSpec:
    """The target section: an object with a kind, or a name such as "v" that is the kind."""
    if isinstance(raw.get("target"), str):
        raw = {"target": {"kind": raw["target"]}}
    spec = _section(raw, "target")
    kind = spec["kind"]
    if kind in _TARGETS:
        return _TARGETS[kind]
    if kind == "k":
        return _built("target", k_target, spec["k"])
    if kind == "linear":
        phi, psi = spec["phi"], spec["psi"]
        if phi is None or psi is None:
            raise ConfigError("linear target needs constant 'phi' and 'psi'")
        return TargetSpec(phi, psi, name=f"linear({phi:g},{psi:g})")
    raise ConfigError(f"unknown target kind {kind!r}")


def _spectrum(raw: dict, data: dict) -> analytic.Spectrum:
    """The eigenvalues of the data second moment.

    Manifold data is the spectrum with d unit and D - d zero eigenvalues; a
    ``data.spectrum`` is taken as given, and must have D entries when the
    config sets ``data.D``.  ``data.d`` and ``data.seed`` make the manifold,
    so a config with a spectrum may not set them.
    """
    if data["spectrum"] is None:
        try:
            return analytic.Spectrum.manifold(data["D"], data["d"])
        except (OverflowError, ValueError, MemoryError) as exc:
            raise DimError(f"data.D = {data['D']} is too large: {exc}") from exc
    for key in ("d", "seed"):
        if raw["data"].get(key) is not None:
            raise ConfigError(f"data.{key} does not apply to data.spectrum; drop it")
    spectrum = _built("data.spectrum", analytic.Spectrum, data["spectrum"])
    if "D" in raw.get("data", {}) and spectrum.dim != data["D"]:
        raise DimError(f"data.spectrum has {spectrum.dim} eigenvalues but data.D is {data['D']}")
    return spectrum


def load_config(path, seed: int | None = None) -> Config:
    """Read a JSON config, check every section and build the ``Config`` it describes.

    ``seed``, when given, replaces the config's top-level seed.  Unknown keys,
    values of the wrong type and values the library rejects all raise a
    one-line ``ConfigError`` (or ``DimError``) that names the key or section.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an integer of too many
    # digits; RecursionError is arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    top = _section(raw, "")
    if seed is None:
        seed = top["seed"]
    floor = top["clamp_floor"]
    if not 0.0 < floor < 1.0:
        raise ConfigError(f"clamp_floor must lie in (0, 1), got {floor}")
    target = _target(raw)
    measure = _built("interval/time_sampler", TimeMeasure, **_section(raw, "time_sampler"), interval=top["interval"])
    data = _section(raw, "data")
    spectrum = _spectrum(raw, data)
    # the trainer and the per-mode formulas square terms of order lam: reject before any work
    analytic._check_mode_terms(spectrum.eigenvalues, 1.0)
    theory = _section(raw, "theory")
    dynamics = _section(raw, "dynamics")
    tol = dynamics.pop("tol")
    train = _section(raw, "train")
    train = _built("train", kdiff.TrainConfig, **train, seed=seed, measure=measure, clamp_floor=floor)
    if train.loss_mode == "v_alg1":
        # v_alg1 weights the u-residual by kappa = 1 / den, with den clamped at clamp_floor, so
        # its gradient's terms reach (lam + 1) kappa^2, which Adam squares: moment 1 / clamp_floor^2, inf
        # below a floor of about 1e-154, where clamp_floor**-2 would raise OverflowError
        analytic._check_mode_terms(spectrum.eigenvalues, 1.0 / floor / floor)
    flow = _built("dynamics", lindyn.FlowConfig, **dynamics)
    sample = _section(raw, "sample")
    n_samples, net, sample_k = sample.pop("n_samples"), sample.pop("net"), sample.pop("k")
    if net == "train" and raw.get("sample", {}).get("k") is not None:
        raise ConfigError("sample.k applies to net optimal_linear only; a trained net uses train.k_init")
    # each size makes an array of 8-byte floats, whose byte count numpy must index
    per_row = {"sample.n_samples": n_samples, "train.batch": train.batch, "dynamics.batch": flow.batch}
    sizes = {"theory.k_points": theory["k_points"], "train.k_bins + 1": (train.k_bins or 0) + 1}
    sizes.update((f"{key} x data.D", rows * spectrum.dim) for key, rows in per_row.items())
    for keys, count in sizes.items():
        if 8 * count > _INT_MAX:
            raise ConfigError(f"{keys} = {count} floats take more than {_INT_MAX} bytes")
    sample = _built("sample", sampler.SampleRun, **sample, clamp_floor=floor)
    _built("sample", k_target, sample_k)  # checks sample.k
    return Config(
        seed=seed,
        output_dir=top["output_dir"],
        loss=top["loss"],
        measure=measure,
        target=target,
        spectrum=spectrum,
        manifold_dim=data["d"] if data["spectrum"] is None else None,
        data_seed=seed if data["seed"] is None else data["seed"],
        k_points=theory["k_points"],
        flow=flow,
        tol=tol,
        train=train,
        sample=sample,
        n_samples=n_samples,
        net=net,
        sample_k=sample_k,
    )


# CSV text is made a block of about _BLOCK_CELLS values at a time.  Every value
# gets a cell of _CELL bytes laid out as _TEMPLATE (columns in brackets): its
# leading separator [0], "-" [1], the "0" of a number below 1 [2], the 17
# digits [3-19], "." [20], the up to three zeros after the point of a number
# below 0.1 [21-23], and the 17 digits again [27-43].  Each copy of the digits
# is a leading digit and four 4-digit words.  A keep mask picks the cell's
# text: at 1 <= |x| the first copy gives the integer part and the second the
# fraction, so the point needs no shift; below 1 only the second copy is
# kept.  Underscores are never kept.  Any other text fits a cell too: %d of an
# int64 or uint64 is at most 20 bytes and a fallback %.17g at most 24.
_BLOCK_CELLS = 4096
_CELL = 44
_TEMPLATE = np.frombuffer(b",-0" + b"_" * 17 + b".000" + b"_" * 20, np.uint8)
# Values with _LOW <= |x| < _HIGH are printed by the block formatter.  There
# %.17g has the exponent E of a fixed-point number, -4 <= E <= 15, and
# N = round(|x| 10^(16 - E)) holds its 17 digits.
_LOW, _HIGH = 1e-4, 1e16
_E_MIN = -5  # floor(log10|x|) may land one below E at 1e-4
_POWERS = np.array([float(10 ** (16 - e)) for e in range(_E_MIN, 17)])  # each exact
_SPLITTER = 134217729.0  # 2^27 + 1


def _split(a):
    """Veltkamp's split: a = high + low, each with at most 26 significant bits."""
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


_POWERS_HIGH, _POWERS_LOW = _split(_POWERS)
# the four ASCII digits of each 4-digit group, and as one word
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_GROUP_DIGITS = np.stack([np.tile(np.repeat(_DIGITS, 10 ** (3 - j)), 10**j) for j in range(4)], axis=1)
_GROUP_TEXT = _GROUP_DIGITS.view(np.uint32).ravel()
# trailing zero digits of each group, 4 for 0
_ZERO = (_GROUP_DIGITS == ord("0")).astype(np.uint8)
_GROUP_ZEROS = _ZERO[:, 3] * (1 + _ZERO[:, 2] * (1 + _ZERO[:, 1] * (1 + _ZERO[:, 0])))
_TEXT_CODES = 2 * 20 * 17  # keep codes below this are (sign, E, trailing zeros)


def _keep_table() -> np.ndarray:
    """Keep mask of a cell per code.

    Code ``340 neg + 17 (E + 4) + tz`` keeps the text of a formatted value
    with sign ``neg``, exponent E and tz trailing zero digits; code
    ``_TEXT_CODES + L`` keeps the separator and the L bytes after it.
    """
    col = np.arange(_CELL)
    code = np.arange(_TEXT_CODES + _CELL)[:, None]
    neg, exp, tz = code // 340, code // 17 % 20 - 4, code % 17
    first, second = np.full(_CELL, -1), np.full(_CELL, -1)  # the digit index a column holds
    first[3], first[4:20] = 0, np.arange(1, 17)
    second[27], second[28:44] = 0, np.arange(1, 17)
    last = 16 - tz  # the last digit written
    formatted = (
        (col == 0)
        | ((col == 1) & (neg == 1))
        | ((col == 2) & (exp < 0))
        | ((first >= 0) & (first <= exp))
        | ((col == 20) & ((exp < 0) | (last > exp)))
        | ((col >= 21) & (col <= 23) & (col - 21 < -exp - 1))
        | ((second >= 0) & (second > exp) & (second <= last))
    )
    return np.where(code < _TEXT_CODES, formatted, col <= code - _TEXT_CODES)


_KEEP = _keep_table()


class _CsvBlock:
    """The cells of blocks of up to ``rows`` x ``cols`` values.

    Two buffers persist between blocks: ``text``, the cells laid out as
    _TEMPLATE with each line's leading newline, and ``kept``, the kept bytes,
    whose bool view ``keep`` receives each cell's keep mask.  Made once per
    file, sized by its first block (the largest), they are written into
    memory that is already mapped, and a file's memory does not depend on
    its length.  Building them for every block wrote a 4000 x 64 table in
    69 ms against 49 ms (2-core VM, median of 40 interleaved writes).  Every
    other array of a block is a plain expression.
    """

    def __init__(self, rows: int, cols: int):
        self.text = np.tile(_TEMPLATE, (rows * cols, 1))
        self.text.reshape(rows, cols, _CELL)[:, :1, 0] = ord("\n")
        self.kept = bytearray(self.text.size)
        self.keep = np.frombuffer(self.kept, bool).reshape(self.text.shape)

    @staticmethod
    def _product(a, exp):
        """(high, low) with high + low = a 10^(16 - exp) exactly (Dekker's two-product)."""
        i = exp - _E_MIN
        high = a * _POWERS[i]
        a_high, a_low = _split(a)
        p_high, p_low = _POWERS_HIGH[i], _POWERS_LOW[i]
        return high, ((a_high * p_high - high) + a_high * p_low + a_low * p_high) + a_low * p_low

    def format(self, x: np.ndarray, text_cols: list[int], texts: list[str]) -> bytes | bytearray:
        """The CSV text of the float64 block ``x``, one line per row.

        Each line starts with its newline.  The columns ``text_cols`` are
        written as ``texts``, given column by column; every other value as
        ``'%.17g' % v``.
        """
        n, m = x.shape
        cells = n * m
        if not cells:
            return b"\n" * n
        a = np.abs(x).reshape(-1)
        text_cells = (np.array(text_cols, np.int64)[:, None] + np.arange(n) * m).ravel()
        a[text_cells] = 1.5
        outside = np.flatnonzero(~((a >= _LOW) & (a < _HIGH)))
        if outside.size:
            texts = texts + ["%.17g" % v for v in x.reshape(-1)[outside].tolist()]
            text_cells = np.concatenate([text_cells, outside])
            a[outside] = 1.5

        exp = np.floor(np.log10(a)).astype(np.int64)
        high, low = self._product(a, exp)
        # fix E where log10 was off by one: then high + low lies outside [1e16, 1e17)
        off = np.flatnonzero((high <= 1e16) | (high >= 1e17))
        if off.size:
            h, lo = high[off], low[off]
            exp[off] = exp[off] - ((h < 1e16) | ((h == 1e16) & (lo < 0))) + ((h > 1e17) | ((h == 1e17) & (lo >= 0)))
            high[off], low[off] = self._product(a[off], exp[off])
        # high is an even integer (its spacing is at least 2), so rounding low
        # half to even rounds high + low half to even, as %.17g does.  N cannot
        # round up to 10^17: that needs |x| within 5e-18 relative below
        # 10^(E + 1), and no double lies that close below 10^-3 .. 10^16
        # (10^0 .. 10^16 are doubles, the doubles nearest 10^-3 .. 10^-1 lie
        # above them, and doubles are at least 1.1e-16 relative apart)
        num = high.astype(np.int64) + np.rint(low).astype(np.int64)
        # four 1-d groups, not one (cells, 4) array: at 4096 cells that is
        # 128 KiB, glibc's default mmap threshold, and making it for every
        # block raised the benchmark's theory_sample peak RSS by 2.5-4.2 MB
        groups = []
        for _ in range(4):
            quot = num // 10000
            groups.insert(0, num - quot * 10000)
            num = quot  # num is left with the leading digit

        text, keep = self.text[:cells], self.keep[:cells]
        text[:, 3] = text[:, 27] = num + ord("0")
        words = text.view(np.uint32)
        tz = 0
        for j, group in enumerate(groups):
            words[:, 1 + j] = words[:, 7 + j] = np.take(_GROUP_TEXT, group, mode="clip")
            zeros = np.take(_GROUP_ZEROS, group, mode="clip")
            tz = tz * (zeros == 4) + zeros
        code = exp * 17 + 4 * 17 + tz + np.less(x, 0).reshape(-1) * 340

        if texts:
            lengths = np.fromiter(map(len, texts), np.int64, len(texts))
            starts = np.cumsum(lengths) - lengths
            at = np.repeat(text_cells * _CELL + 1 - starts, lengths) + np.arange(lengths.sum())
            text.reshape(-1)[at] = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
            code[text_cells] = _TEXT_CODES + lengths
        np.take(_KEEP, code, axis=0, out=keep, mode="clip")
        np.multiply(text, keep, out=keep.view(np.uint8))
        if texts:
            text[text_cells, 1:_CELL] = _TEMPLATE[1:]
        # text holds no NUL byte, so deleting them drops exactly the unkept bytes
        return (self.kept if keep.size == len(self.kept) else self.kept[: keep.size]).translate(None, b"\0")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write the header and one line per row, formatted a block of rows at a time.

    ``columns`` are arrays of equal length: a 1-d array is one column and a
    2-d array one column per array column.  Integer arrays are written with
    ``%d`` and float arrays with ``%.17g``, byte for byte.  Unequal lengths
    and a header whose length is not the number of columns raise
    ``ValueError``, and any other dtype ``TypeError``; each leaves no file.
    A directory at ``path`` raises ``IsADirectoryError`` and is kept.
    Only one block of text is held in memory at a time, in the two buffers of
    one ``_CsvBlock`` made for the whole file.
    """
    try:
        tables = [a[:, None] if a.ndim == 1 else a for a in map(np.asarray, columns)]
        lengths = {len(t) for t in tables}
        if len(lengths) > 1:
            raise ValueError(f"{path.name}: columns have unequal lengths {sorted(lengths)}")
        if any(t.dtype.kind not in "iuf" for t in tables):
            raise TypeError(f"{path.name}: a column is neither integer nor float")
        n, ends = max(lengths, default=0), np.cumsum([0] + [t.shape[1] for t in tables])
        if len(header) != ends[-1]:
            raise ValueError(f"{path.name}: the header has length {len(header)}, the table {ends[-1]} columns")
        spans = list(zip(tables, ends, ends[1:]))
        int_cols = [c for t, lo, hi in spans if t.dtype.kind != "f" for c in range(lo, hi)]
        step = max(1, _BLOCK_CELLS // max(ends[-1], 1))
        # float values in place, zeros at the integer columns, whose cells hold their texts
        values = np.zeros((min(step, n), ends[-1]))
        cells = _CsvBlock(*values.shape)
        with open(path, "wb") as fh:
            fh.write(",".join(header).encode("utf-8"))
            for start in range(0, n, step):
                block, texts = values[: n - start], []
                for t, lo, hi in spans:
                    part = t[start : start + step]
                    if t.dtype.kind == "f":
                        block[:, lo:hi] = part
                    else:
                        texts += map(str, part.T.ravel().tolist())
                fh.write(cells.format(block, int_cols, texts))
            fh.write(b"\n")
    except BaseException:
        # an earlier run's table or this run's partial one; a directory in the way is left as it is
        if not path.is_dir():
            path.unlink(missing_ok=True)
        raise


def write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class _Results:
    """A run's output directory; each result path it gives is added to ``written``."""

    directory: Path
    written: list[Path]

    def path(self, name: str) -> Path:
        self.written.append(self.directory / name)
        return self.written[-1]


def _u_loss_k_star(cfg: Config) -> float:
    """The exact u-loss k*: D / (D + trace) where that closed form holds, else from one moment set."""
    if cfg.closed_form:
        return analytic.colored_optimal_k(cfg.spectrum)
    moments = analytic.compute_moments(FLOW_MATCHING, k_target(1.0), U_LOSS, cfg.measure)
    return analytic.u_loss_optimal_k(cfg.spectrum.eigenvalues, moments)


def _data_source(cfg: Config) -> geometry.GaussianSource:
    """What a command draws data from: d unit eigenvalues on a random basis made
    from the data seed, or ``data.spectrum`` along the standard basis."""
    if cfg.manifold_dim is None:
        return geometry.GaussianSource.from_spectrum(cfg.spectrum.eigenvalues)
    basis_rng = derive_rng(cfg.data_seed, "geometry", "basis")
    return geometry.random_orthonormal_basis(cfg.spectrum.dim, cfg.manifold_dim, basis_rng)


def cmd_theory(cfg: Config, out: _Results) -> int:
    """Sweep the equilibrium loss over a k grid and report its minimiser.

    Every source writes the same ``theory.csv``: a row's total and its
    parallel and perpendicular parts come from ``optimal_loss``, the support
    and the null space of the data's spectrum (for manifold data, the d unit
    and the D - d zero modes), as in ``dynamics.csv``.  Under the u-loss k* is
    exact.  Under any other loss it is searched inside the two grid cells
    around the grid's lowest row (the lowest k on a tie), and is that row's k
    if the search ends above it: the curve need not have a single minimum
    (the v-loss at D = d peaks at 1/2).
    """

    def row(k: float) -> tuple:
        moments = analytic.compute_moments(FLOW_MATCHING, k_target(k), cfg.loss, cfg.measure)
        loss = analytic.optimal_loss(moments, cfg.spectrum)
        return (k, loss.total, loss.parallel, loss.perpendicular)

    grid = np.linspace(0.0, 1.0, cfg.k_points).tolist()
    table = np.array([row(k) for k in grid])
    write_csv(out.path("theory.csv"), ["k", "delta_total", "delta_parallel", "delta_perpendicular"], [table])
    if cfg.loss is U_LOSS:
        k_star = _u_loss_k_star(cfg)
    else:
        best = int(np.argmin(table[:, 1]))  # the first, so the lowest k, on ties
        bracket = (grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)])
        searched = analytic.argmin_k(lambda k: row(k)[1], bracket=bracket)
        k_star = searched if row(searched)[1] <= table[best, 1] else grid[best]
    delta = row(k_star)[1]
    write_json(out.path("theory_summary.json"), {"k_star": k_star, "delta_at_k_star": delta})
    print(f"theory: k_star = {k_star:.6f}")
    return _EXIT_OK


def cmd_dynamics(cfg: Config, out: _Results) -> int:
    """Integrate the linear-model gradient flow and check convergence to equilibrium.

    ``dist_par`` is the distance on the data's support, ``dist_perp`` on its
    null space.
    """
    source = _data_source(cfg)
    weight0 = np.zeros((source.ambient_dim, source.ambient_dim))
    rng = derive_rng(cfg.seed, "lindyn", "stochastic") if cfg.flow.mode == "stochastic" else None
    trajectory = lindyn.run_gradient_flow(
        weight0, source, cfg.flow, cfg.target, cfg.loss, cfg.measure, rng=rng
    )

    steps = np.array([rec.step for rec in trajectory], np.int64)
    values = np.array([(rec.loss, rec.dist_par, rec.dist_perp) for rec in trajectory])
    write_csv(out.path("dynamics.csv"), ["step", "loss", "dist_par", "dist_perp"], [steps, values])
    final, tol = trajectory[-1], cfg.tol
    converged = final.dist_par < tol and final.dist_perp < tol
    write_json(
        out.path("dynamics_summary.json"),
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


def cmd_train(cfg: Config, out: _Results) -> int:
    """Train the toy model (optionally with a trainable k) and summarise the fixed point."""
    config = cfg.train
    # loss_mode "u" trains the plain target MSE whatever the top-level loss, so k* is
    # the u-loss optimum; the theory does not cover v_alg1's velocity-weighted loss
    k_star = _u_loss_k_star(cfg) if config.loss_mode == "u" else None
    history = kdiff.train(_data_source(cfg), config)

    k_header = ["k"] if history.probe_points is None else [f"k_t{p:g}" for p in history.probe_points]
    final_k = history.final_k
    k_columns = history.k_values.reshape(len(history.steps), -1)
    write_csv(out.path("history.csv"), ["step", "loss", *k_header], [history.steps, history.losses, k_columns])

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
    write_json(out.path("train_summary.json"), summary)
    print(f"train: final_k = {final_k:.4f}, {report}")
    return _EXIT_OK


def cmd_sample(cfg: Config, out: _Results) -> int:
    """Integrate the sampling ODE and report off-manifold energy diagnostics.

    Both nets are linear, so their field is linear in the state: the run
    integrates the D x D identity once, which gives the transposed
    propagator, and maps every noise row through it.  The off-manifold
    energy is the part outside the data's support: for a ``data.spectrum``,
    the energy in its zero-eigenvalue modes.
    """
    source = _data_source(cfg)
    dim = source.ambient_dim
    if cfg.net == "optimal_linear":
        moments = analytic.compute_moments(FLOW_MATCHING, k_target(cfg.sample_k), cfg.loss, cfg.measure)
        net = kdiff.PureLinear(lindyn.equilibrium_weight(source, moments))
        kparam = cfg.sample_k
    else:
        history = kdiff.train(source, cfg.train)
        net, kparam = history.net, history.kparam

    rng = derive_rng(cfg.seed, "sampler", "noise")
    z0 = rng.standard_normal((cfg.n_samples, dim))
    z1 = z0 @ sampler.integrate(cfg.sample, net, kparam, np.eye(dim))
    if not np.all(np.isfinite(z1)):
        raise NonFiniteState("state became non-finite at t = 1")

    header = [f"x{i}" for i in range(dim)]
    write_csv(out.path("samples.csv"), header, [z1])

    def off_manifold_fraction(z: np.ndarray):
        if len(z) == 0:
            return None
        perp = z - z @ source.projector()
        return float(np.sum(perp * perp) / np.sum(z * z))

    diagnostics = {
        "n_samples": cfg.n_samples,
        "solver": cfg.sample.solver,
        "steps": cfg.sample.steps,
        "off_manifold_fraction_t0": off_manifold_fraction(z0),
        "off_manifold_fraction_t1": off_manifold_fraction(z1),
    }
    write_json(out.path("diagnostics.json"), diagnostics)
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


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line per warning, without the source path and code excerpt
    print(f"warning: {message}", file=sys.stderr)


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
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        created, written = [], []
        try:
            cfg = load_config(args.config, seed=args.seed)
            out = Path(args.out if args.out is not None else cfg.output_dir)
            created = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
            out.mkdir(parents=True, exist_ok=True)
            return _COMMANDS[args.command](cfg, _Results(out, written))
        except BaseException as exc:
            # a failed run leaves behind no result file it wrote and no directory it made and left empty
            for path in written:
                if not path.is_dir():
                    path.unlink(missing_ok=True)
            for path in created:
                try:
                    path.rmdir()
                except OSError:
                    break
            # an OSError here is an output path that cannot be made or written; any other
            # exception is a fault of the program, and its traceback is the report
            if not isinstance(exc, (KDiffLabError, MemoryError, OSError)):
                raise
            name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
            print(f"error: {name}: {exc}", file=sys.stderr)
            return _EXIT_ERROR


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
