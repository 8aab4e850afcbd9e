"""Where a result was measured: cores, CPU, interpreter, numpy and BLAS.

Two results are comparable only when their stamps agree on every key in
`COMPARABLE_KEYS`; `compare.py` flags any pair that does not.
"""

from __future__ import annotations

import ctypes
import os
import platform

COMPARABLE_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas_name",
                   "blas_version", "blas_threads")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loaded_blas_path() -> str | None:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                path = line.split()[-1]
                if "blas" in os.path.basename(path).lower() and ".so" in path:
                    return path
    except OSError:
        pass
    return None


def _blas_runtime() -> tuple[int | None, str | None]:
    """Thread count and config string reported by the loaded OpenBLAS."""
    import numpy as np

    np.linalg.eigh(np.eye(2))  # make sure the BLAS library is loaded
    path = _loaded_blas_path()
    if path is None:
        return None, None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None, None
    threads = config = None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", "_64_", ""):
            fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if fn is not None and threads is None:
                fn.restype = ctypes.c_int
                threads = int(fn())
            fn = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if fn is not None and config is None:
                fn.restype = ctypes.c_char_p
                config = fn().decode(errors="replace").strip()
    return threads, config


def environment_stamp() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads, config = _blas_runtime()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
        "blas_config": config,
    }


def stamp_differences(a: dict, b: dict) -> list[str]:
    """Keys on which two stamps disagree, as 'key: a != b' lines."""
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
            for k in COMPARABLE_KEYS if a.get(k) != b.get(k)]
