import numpy as np
import pytest
from numpy.testing import assert_allclose

from circkr import (
    DimensionMismatchError,
    Factorization,
    GrowthOverflowError,
    SingularPivotError,
    SystemSpec,
    TRIDIAGONAL,
    build_dense,
    count_operations,
    decompose,
    decompose_tridiagonal,
    dense_solve,
    solve,
    solve_many,
)

from grids import GRID_A, GRID_D, infinity_norm

SOLVE_N = (3, 4, 5, 8, 16, 64, 200)


def _finite_specs():
    return [
        SystemSpec(n, d * 2.0, 2.0)
        for n in SOLVE_N
        for d in GRID_D
        if not (n == 200 and abs(d) == 100.0)
    ]


def test_unit_vector_fixture():
    # c = 5, a = 2, n = 5 against e_1: the solution is the first column of
    # the inverse, whose exact entries are 31/99, -14/99, 4/99, 4/99, -14/99.
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    e1 = np.zeros(5)
    e1[0] = 1.0
    x = solve(fct, e1)
    assert_allclose(
        x, [31 / 99, -14 / 99, 4 / 99, 4 / 99, -14 / 99], rtol=1e-13, atol=0
    )


def test_constant_vector_has_closed_form():
    # All row sums equal c + 2a, so A x = 1 is solved by x = 1 / (c + 2a).
    spec = SystemSpec(9, 11.0, 3.0)
    x = solve(decompose(spec), np.ones(9))
    assert_allclose(x, np.full(9, 1.0 / 17.0), rtol=1e-13)


@pytest.mark.parametrize("spec", _finite_specs(), ids=lambda s: f"n{s.n}d{s.d}")
def test_residual_and_oracle_agreement(spec):
    fct = decompose(spec)
    dense = build_dense(spec)
    rng = np.random.default_rng(1000 + spec.n)
    b = rng.standard_normal(spec.n)
    x = solve(fct, b)
    bound = 1e-10 * infinity_norm(dense) * max(np.abs(x).max(), 1e-300)
    assert np.abs(dense @ x - b).max() <= max(bound, 1e-13)
    reference = dense_solve(dense, b)
    scale = np.abs(reference).max()
    assert np.abs(x - reference).max() <= 1e-9 * scale


@pytest.mark.parametrize("a", GRID_A)
def test_off_diagonal_scale_is_exactly_linear(a):
    # Solutions for (c, a) and (t c, t a) differ by exactly the factor t in
    # every entry, because the factors depend on d alone.
    n, d = 12, -3.25
    b = np.linspace(-1.0, 1.0, n)
    base = solve(decompose(SystemSpec(n, d * 1.0, 1.0)), b)
    scaled = solve(decompose(SystemSpec(n, d * a, a)), b)
    # Power-of-two scales commute with every rounding; others pick up a few
    # ulps from the initial b / a division.
    tol = 0.0 if a in (1.0, -0.5) else 1e-12
    assert_allclose(scaled * a, base, rtol=tol, atol=tol)


def test_tridiagonal_variant():
    spec = SystemSpec(16, -9.0, 4.0)
    fct = decompose_tridiagonal(spec)
    dense = build_dense(spec, variant=TRIDIAGONAL)
    rng = np.random.default_rng(77)
    b = rng.standard_normal(16)
    x = solve(fct, b)
    assert np.abs(dense @ x - b).max() <= 1e-12 * infinity_norm(dense)
    assert_allclose(x, dense_solve(dense, b), rtol=0, atol=1e-12)


def test_solve_many_matches_columnwise():
    spec = SystemSpec(20, 7.0, -2.0)
    fct = decompose(spec)
    rng = np.random.default_rng(5150)
    block = rng.standard_normal((20, 6))
    got = solve_many(fct, block)
    assert got.shape == (20, 6)
    for j in range(6):
        assert_allclose(got[:, j], solve(fct, block[:, j]), rtol=0, atol=0)


def test_solve_many_empty_block():
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    out = solve_many(fct, np.empty((5, 0)))
    assert out.shape == (5, 0)


def test_solve_many_names_offending_column():
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    block = np.ones((5, 3))
    block[2, 1] = np.nan
    with pytest.raises(GrowthOverflowError, match="column 2"):
        solve_many(fct, block)


def test_solve_many_shape_check():
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    with pytest.raises(DimensionMismatchError):
        solve_many(fct, np.ones(5))
    with pytest.raises(DimensionMismatchError):
        solve_many(fct, np.ones((4, 2)))


def test_rejects_non_finite_rhs():
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    bad = np.ones(5)
    bad[3] = np.inf
    with pytest.raises(GrowthOverflowError, match="entry 4"):
        solve(fct, bad)


def test_rejects_wrong_length():
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    with pytest.raises(DimensionMismatchError):
        solve(fct, np.ones(6))


def test_singular_closure_guard():
    # A hand-built factorization with g = 0 must refuse to divide.
    spec = SystemSpec(5, 5.0, 2.0)
    good = decompose(spec)
    fct = Factorization(spec, good.f, good.r, 0.0)
    with pytest.raises(SingularPivotError):
        solve(fct, np.ones(5))


class TestOperationCount:
    def test_work_scales_linearly(self):
        totals = {}
        for n in (256, 512, 1024, 2048):
            fct = decompose(SystemSpec(n, 2.0002, 1.0))
            b = np.ones(n)
            with count_operations() as counter:
                solve(fct, b)
            totals[n] = counter.total
        for n in (256, 512, 1024):
            ratio = totals[2 * n] / totals[n]
            assert 1.8 <= ratio <= 2.2, ratio

    def test_counter_is_scoped(self):
        fct = decompose(SystemSpec(8, 5.0, 2.0))
        with count_operations() as outer:
            solve(fct, np.ones(8))
            first = outer.total
            with count_operations() as inner:
                solve(fct, np.ones(8))
            assert inner.total == first
            assert outer.total == first
        assert first > 0


@pytest.mark.parametrize(
    "spec, exponent",
    [(SystemSpec(1000, 2.5, 1.0), 34), (SystemSpec(65536, 1.0 + 2e4, -1e4), 100)],
    ids=["d2.5-n1000-b1e10", "d-2.0001-n65536-b1e30"],
)
def test_large_rhs_does_not_overflow(spec, exponent):
    # |f_n| is within a few decades of the 64-bit limit at these orders, so
    # the literal product f * b overflows for a large but representable b
    # although A is well conditioned.  Scaling b by a power of two must scale
    # x by exactly the same power.
    fct = decompose(spec)
    b = np.random.default_rng(7).standard_normal(spec.n)
    big = np.ldexp(b, exponent)
    x = solve(fct, big)
    assert np.array_equal(x, np.ldexp(solve(fct, b), exponent))
    residual = spec.c * x + spec.a * (np.roll(x, 1) + np.roll(x, -1)) - big
    norm_a = abs(spec.c) + 2.0 * abs(spec.a)
    assert np.abs(residual).max() <= 1e-14 * norm_a * np.abs(x).max()
