"""The strict grid of the accuracy harness, tools/accuracy.py, as a test."""

import circkr

from grids import accuracy


def test_strict_grid_within_bound():
    # Every strict system, exact (n <= 200) or spectral references up to
    # n = 65535: solve, solve_many and both inverses finite and within
    # accuracy.STRICT_BOUND = 64 kappa * eps, and no case raises.
    records = accuracy.measure("strict", [("this", circkr)])
    assert len(records) == 2 * len(accuracy.grid("strict", circkr))
    assert accuracy.strict_failures(records) == []


def test_strict_failures_reject_nan_and_errors():
    record = {"grid": "strict", "variant": "circulant", "n": 8, "c": 2.5, "a": 1.0,
              "kappa": 9.0, "reference": "exact", "figures": {
                  "finite": {"solve": 1.0, "solve_many": 1.0, "solve_backward_eps": 1e9},
                  "nan": {"solve": float("nan"), "solve_many": 1.0},
                  "past": {"solve": 1.0, "solve_many": 65.0},
                  "raised": {"error": "GrowthOverflowError"}}}
    failing = [line.split()[5] for line in accuracy.strict_failures([record])]
    assert failing == ["nan", "past", "raised"]
    assert accuracy.strict_failures([dict(record, grid="permissive")]) == []
