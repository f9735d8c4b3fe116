"""Machine and library details recorded with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource

import numpy as np
import scipy


def _openblas() -> dict:
    """Version and live thread count of the OpenBLAS that NumPy loaded.

    Falls back to NumPy's build record when the library cannot be queried.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"openblas": config().decode(), "blas_threads": threads()}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"openblas": f"{blas.get('name')} {blas.get('version')} (build record)", "blas_threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def describe(pinned_threads: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": int(pinned_threads),
        **_openblas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
