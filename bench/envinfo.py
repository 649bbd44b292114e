"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import importlib.metadata
import os
import platform
import sys
from pathlib import Path

# What this benchmark measures under but cannot set or observe.
UNCONTROLLED = (
    "CPU frequency: no scaling governor is set or pinned by the benchmark",
    "file and page cache: not dropped between runs; CLI writes land in it",
    "other processes sharing the CPUs: load average is recorded, not controlled",
)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpuinfo(key: str) -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        name, _, value = line.partition(":")
        if name.strip() == key:
            return value.strip()
    return None


def loadavg() -> str | None:
    return _read("/proc/loadavg")


def _blas_threads() -> int | None:
    """Runtime OpenBLAS thread count of the library numpy loaded."""
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        if "openblas" in Path(path).name:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    return int(getattr(lib, symbol)())
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {key: os.environ.get(key) for key in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "scipy_installed": _version("scipy"),
        "cpu_model": _cpuinfo("model name"),
        "cpu_mhz": _cpuinfo("cpu MHz"),
        "cpufreq_governor": _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": loadavg(),
        "uncontrolled": list(UNCONTROLLED),
    }
