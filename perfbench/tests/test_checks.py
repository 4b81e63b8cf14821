"""The benchmark's checkers catch wrong results, and its oracles are right."""

import re
from pathlib import Path

import numpy as np
import pytest
from checks import (
    CheckFailed,
    check_inverse,
    check_same_factorization,
    check_solve,
    condition_number,
    fft_solve,
    matvec,
    max_safe_n,
)
from circkr import (
    GrowthOverflowError,
    SystemSpec,
    build_dense,
    decompose,
    decompose_tridiagonal,
    inverse_dense,
    solve,
)
from harness import run_ops
from workloads import WORKLOADS


@pytest.mark.parametrize("d, expected", [(-2.0001, 70518), (4.0, 538), (2.05, 3174), (2.5, 1023)])
def test_max_safe_n_is_decompose_limit(d, expected):
    assert max_safe_n(d) == expected
    decompose(SystemSpec(expected, d, 1.0))
    with pytest.raises(GrowthOverflowError) as err:
        decompose(SystemSpec(expected + 1, d, 1.0))
    assert err.value.max_safe_n == expected


@pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
def test_matvec_and_condition_match_dense(variant):
    spec = SystemSpec(9, -2.3, 1.1)
    dense = build_dense(spec, variant)
    x = np.random.default_rng(0).standard_normal((9, 2))
    np.testing.assert_allclose(matvec(spec.c, spec.a, x, variant == "circulant"), dense @ x,
                               rtol=0, atol=1e-14)
    assert condition_number(spec.c, spec.a, 9, variant == "circulant") == pytest.approx(
        np.linalg.cond(dense), rel=1e-12)


def test_fft_solve_matches_dense_solve():
    spec = SystemSpec(17, 2.2, -0.9)
    b = np.random.default_rng(1).standard_normal((17, 3))
    np.testing.assert_allclose(fft_solve(spec.c, spec.a, b),
                               np.linalg.solve(build_dense(spec), b), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("circulant", [True, False])
def test_check_solve_rejects_perturbed_solution(circulant):
    spec = SystemSpec(64, 2.01, 1.0)
    fct = decompose(spec) if circulant else decompose_tridiagonal(spec)
    b = np.random.default_rng(2).standard_normal(64)
    x = solve(fct, b)
    reference = fft_solve(spec.c, spec.a, b) if circulant else None
    assert check_solve(spec.c, spec.a, b, x, circulant, reference) < 1e-15
    x[7] *= 1.0 + 1e-9
    with pytest.raises(CheckFailed):
        check_solve(spec.c, spec.a, b, x, circulant, reference)


def test_fft_agreement_is_checked_beside_backward_error():
    spec = SystemSpec(32, 4.0, 1.0)
    b = np.random.default_rng(3).standard_normal(32)
    x = solve(decompose(spec), b)
    with pytest.raises(CheckFailed, match="FFT oracle"):
        check_solve(spec.c, spec.a, b, x, True, x * (1.0 + 1e-10))


@pytest.mark.parametrize("circulant", [True, False])
def test_check_inverse_rejects_perturbed_inverse(circulant):
    spec = SystemSpec(48, 2.05 * -1.3, -1.3)
    inverse = inverse_dense(decompose(spec) if circulant else decompose_tridiagonal(spec))
    check_inverse(spec.c, spec.a, inverse, circulant)
    inverse[5, 9] += 1e-9
    with pytest.raises(CheckFailed):
        check_inverse(spec.c, spec.a, inverse, circulant)


def test_check_same_factorization_is_bitwise():
    spec = SystemSpec(20, 3.0, 1.0)
    fct = decompose(spec)
    check_same_factorization(fct, decompose(spec))
    other = decompose(SystemSpec(20, 3.0 + 1e-15, 1.0))
    with pytest.raises(CheckFailed):
        check_same_factorization(other, fct)


def _scale(values, factor):
    out = np.array(values, dtype=float)
    out.flat[len(out.flat) // 2] *= factor
    return out


def _perturb_last_number(path, line_prefix=""):
    text = Path(path).read_text(encoding="utf-8").splitlines()
    row = max(i for i, line in enumerate(text) if line.startswith(line_prefix))
    value = re.findall(r"[-+0-9.e]+$", text[row])[0]
    text[row] = text[row][: -len(value)] + repr(float(value) * (1.0 + 1e-6) + 1e-300)
    Path(path).write_text("\n".join(text) + "\n", encoding="utf-8")


def _perturb_cli(op, out):
    code, stdout, stderr = out
    if op.kind == "check":
        return code, stdout.replace("reconstruction residual = ", "reconstruction residual = 1"), stderr
    _perturb_last_number(op.data["out"], "f = " if op.kind == "decompose" else "")
    return out


PERTURB = {
    "stepping": lambda op, x: _scale(x, 1.0 + 1e-6),
    "curve_fit": lambda op, out: (out[0], _scale(out[1], 1.0 + 1e-6)),
    "dense_inverse": lambda op, out: (out[0], _scale(out[1], 1.0 + 1e-6)),
    "cli": _perturb_cli,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_perturbed_results_raise_fail_rate(name, traced, tmp_path):
    from tracing import Tracer

    wl = WORKLOADS[name](7, True, tmp_path)
    wl.setup()
    clean = run_ops(wl, 0.0, Tracer() if traced else None, min_ops=20)
    assert clean.failed == 0

    run = wl.run
    wl.run = lambda op, tracer: PERTURB[name](op, run(op, tracer))
    tally = run_ops(wl, 0.0, Tracer() if traced else None, min_ops=20)
    assert tally.failed / tally.attempted > 0
    # Every op of every kind was perturbed, so every op must have been caught.
    assert tally.failed == tally.attempted


def test_cli_nonzero_exit_counts_as_failure(tmp_path):
    wl = WORKLOADS["cli"](7, True, tmp_path)
    wl.setup()
    run = wl.run
    wl.run = lambda op, tracer: (1,) + run(op, tracer)[1:]
    tally = run_ops(wl, 0.0, None, min_ops=20)
    assert tally.failed == tally.attempted == 20
