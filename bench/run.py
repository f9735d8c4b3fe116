"""kdiff-lab benchmark: run one workload, check its results, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout; the program is imported from ``src/``.
The workload's inputs are made from ``--seed`` at set-up; then one caller
runs the workload's round of tasks once to warm up, then repeats it until
``--seconds`` have passed, and at least twice, so that repeats with the
same seed can be compared.  BLAS is pinned to one thread.

With ``--trace 0`` the last stdout line carries the end-to-end metrics listed
in BENCHMARK.json; with ``--trace 1`` untraced and traced rounds alternate
and it carries the per-layer metrics.  The lines before it print every metric
by name with its unit, the machine, and the hash of each task's results.
Details of the run go to ``.bench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PERCENTILES = {"p50_us": 50.0, "p99_us": 99.0}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _prepare() -> None:
    """Pin BLAS threads and put the checkout's src/ first on the import path."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))


def _setup_child(args) -> int:
    """Child process of a set-up probe: import the package, build the inputs."""
    start = time.perf_counter()
    import kdiff_lab  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    import workloads

    size = workloads.TINY if args.tiny else workloads.FULL
    work = ROOT / ".bench_work" / args.workload / "probe"
    workloads.WORKLOADS[args.workload](args.seed, work, size)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "build_s": built - imported}))
    return 0


def _time_setup(args) -> dict:
    """Time one fresh interpreter that imports kdiff_lab and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return {"wall_s": wall, **json.loads(proc.stdout.strip().splitlines()[-1])}


def _run_round(tasks, tracer) -> dict:
    """Run every task once, then check and hash its results."""
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    problems: dict[str, list[str]] = {}
    hashes: dict[str, str] = {}
    task_s: dict[str, float] = {}
    if tracer:
        tracer.install()
    start = time.perf_counter()
    for task in tasks:
        task.reset()
        t0 = time.perf_counter()
        try:
            with span(f"task.{task.kind}"):
                status = task.run()
            task_s[task.kind] = task_s.get(task.kind, 0.0) + time.perf_counter() - t0
            found = task.check() if status == 0 else [f"exit status {status}"]
            hashes[task.name] = task.digest() if status == 0 else "none"
        except Exception:  # a crash in one task is reported as its failure
            found = ["raised:\n" + traceback.format_exc()]
            hashes[task.name] = "none"
        problems[task.name] = found
    wall = time.perf_counter() - start
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.take_round()
    return {"wall_s": wall, "traced": tracer is not None, "task_s": task_s,
            "problems": problems, "hashes": hashes, "layers": layers}


def _tally(rounds: list[dict]) -> tuple[int, int]:
    """Checks attempted and failed over all rounds.

    Every task's check counts once per round, and every repeat of a task
    counts once more: it fails when its result hash differs from round 0's.
    """
    attempted = failed = 0
    reference = rounds[0]["hashes"]
    for index, rnd in enumerate(rounds):
        for name, found in rnd["problems"].items():
            attempted += 1
            failed += bool(found)
            for problem in found:
                print(f"check failed: round {index} task {name}: {problem}", file=sys.stderr)
            if index > 0:
                attempted += 1
                if rnd["hashes"][name] != reference[name]:
                    failed += 1
                    print(f"check failed: round {index} task {name}: result hash differs from round 0",
                          file=sys.stderr)
    return attempted, failed


def _layer_metric(name: str, tracer, traced: list[dict], known: set[str], units: dict) -> tuple[float, str]:
    """One per-layer metric, ``<span>.<stat>``: a median over the traced rounds."""
    base, stat = name.rsplit(".", 1)
    if base not in known or stat not in units:
        raise KeyError(f"BENCHMARK.json names per-layer metric {name!r}, which the tracer does not record")
    if stat in PERCENTILES:
        value = tracer.percentile_us(base, PERCENTILES[stat])
    else:
        value = statistics.median(r["layers"].get(name, 0) for r in traced)
    return value, units[stat]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "kdiff_lab" / "__init__.py").is_file():
        print(f"error: {SRC}/kdiff_lab not found; run from a checkout of kdiff-lab", file=sys.stderr)
        return 2
    _prepare()
    if args.setup_child:
        return _setup_child(args)

    import machine
    import spans
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    size = workloads.TINY if args.tiny else workloads.FULL
    work = ROOT / ".bench_work" / args.workload
    tasks = workloads.WORKLOADS[args.workload](args.seed, work / "tasks", size)
    tracer = spans.Tracer() if args.trace else None

    # The set-up probes are spread over the measuring time, so that they see
    # the same machine as the rounds; their own time is not counted in it.
    # Round 0 warms up: it is checked and hashed but not timed.
    rounds = [_run_round(tasks, None)]
    probes: list[dict] = []
    n_probes = 2 if args.tiny else SETUP_PROBES
    min_rounds = 5 if tracer else 3
    measured = 0.0
    while len(rounds) < min_rounds or len(probes) < n_probes or measured < args.seconds:
        if len(probes) < n_probes and measured >= len(probes) * args.seconds / n_probes:
            probes.append(_time_setup(args))
            continue
        traced = tracer is not None and len(rounds) % 2 == 0
        start = time.perf_counter()
        rounds.append(_run_round(tasks, tracer if traced else None))
        measured += time.perf_counter() - start

    attempted, failed = _tally(rounds)
    plain = [r for r in rounds[1:] if not r["traced"]]
    wall_s = statistics.median(r["wall_s"] for r in plain)
    e2e = {
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "peak_rss_mb": (machine.peak_rss_mb(), "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    kinds = {task.kind for task in tasks}
    for kind in workloads.TASK_KINDS:
        if kind in kinds:
            e2e[f"{kind}_s"] = (statistics.median(r["task_s"].get(kind, 0.0) for r in plain), "s")

    layers = {}
    if tracer:
        traced = [r for r in rounds if r["traced"]]
        known = tracer.functions | {f"task.{kind}" for kind in workloads.TASK_KINDS}
        layers["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced) - wall_s, "s")
        for entry in spec["per_layer"]:
            if entry["name"] not in layers:
                layers[entry["name"]] = _layer_metric(entry["name"], tracer, traced, known, spans.STAT_UNITS)
        tracer.write(work / "trace.npz")

    section, values = ("per_layer", layers) if tracer else ("end_to_end", e2e)
    metrics = {}
    for entry in spec[section]:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"metric {entry['name']} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    info = machine.describe(BLAS_THREADS)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "rounds": len(rounds), "traced_rounds": sum(r["traced"] for r in rounds),
        "machine": info, "hashes": rounds[0]["hashes"], "setup_probes": probes,
        "round_wall_s": [r["wall_s"] for r in rounds], "round_traced": [r["traced"] for r in rounds],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 caller, {len(rounds)} rounds "
          f"(1 warm-up, {record['traced_rounds']} traced)")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, digest in record["hashes"].items():
        print(f"hash {name} sha256:{digest}")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
