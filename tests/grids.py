"""Shared parameter grids and small helpers for the test suite."""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np

# tools/accuracy.py, the accuracy harness, which is a script and not a package.
_ACCURACY = importlib.util.spec_from_file_location(
    "accuracy", Path(__file__).parents[1] / "tools" / "accuracy.py")
accuracy = importlib.util.module_from_spec(_ACCURACY)
_ACCURACY.loader.exec_module(accuracy)

# The stress grid: orders, normalized ratios, off-diagonal scales.
GRID_N = (3, 4, 5, 8, 16, 64, 200)
GRID_D = (2.05, -2.05, 2.5, -2.5, 5.0, -5.0, 100.0, -100.0)
GRID_A = (1.0, -0.5, 3.0)

# Subset used for dense identity products.
IDENTITY_N = (3, 4, 5, 8, 16, 64)


def recurrence_overflows(d, m):
    """Independent oracle: does f_0..f_m leave the finite range?

    Deliberately re-runs the bare recurrence with no library code.
    """
    prev, cur = 0.0, 1.0
    for _ in range(1, m):
        try:
            prev, cur = cur, -d * cur - prev
        except OverflowError:
            return True
        if not math.isfinite(cur):
            return True
    return False


def grid_cases(sizes=GRID_N, ratios=GRID_D, scales=GRID_A):
    """All (n, d, a) combinations whose recurrence stays finite to f_{n+1}."""
    cases = []
    for n in sizes:
        for d in ratios:
            if recurrence_overflows(d, n + 1):
                continue
            for a in scales:
                cases.append((n, d, a))
    return cases


def overflow_cases(sizes=GRID_N, ratios=GRID_D, scales=GRID_A):
    """The complementary combinations, which must fail structurally."""
    cases = []
    for n in sizes:
        for d in ratios:
            if recurrence_overflows(d, n + 1):
                for a in scales:
                    cases.append((n, d, a))
    return cases


def infinity_norm(matrix):
    return np.abs(matrix).sum(axis=1).max()


def relative_max_error(actual, expected):
    expected = np.asarray(expected, dtype=float)
    scale = np.abs(expected).max()
    return np.abs(np.asarray(actual, dtype=float) - expected).max() / scale


def peak_doubles(func, *args):
    """Peak traced allocation during ``func(*args)``, in float64 elements."""
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 8
    finally:
        tracemalloc.stop()
