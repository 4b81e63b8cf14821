"""The run environment recorded with every result (read-only)."""

import os
import platform
from pathlib import Path

# run.py sets these to 1 before numpy loads (so this module imports numpy
# lazily): one caller, and never more BLAS threads than cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def cache_bytes():
    """Data and unified cache sizes of one core, e.g. {"L1": ..., "L2": ..., "L3": ...}."""
    sizes = {}
    for index in sorted(_CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size:
            sizes[f"L{level}"] = int(size.rstrip("KMG")) * _UNITS.get(size[-1], 1)
    return sizes


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = cache_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2_mb": caches.get("L2", 0) / 1e6,
        "l3_mb": caches.get("L3", 0) / 1e6,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
    }
