import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from circkr import (
    Factorization,
    GrowthOverflowError,
    SingularPivotError,
    SizeGuardError,
    SystemSpec,
    TRIDIAGONAL,
    VariantMismatchError,
    build_dense,
    count_operations,
    decompose,
    decompose_tridiagonal,
    inverse_dense,
    inverse_first_row,
    spectral_inverse_first_row,
)

from grids import grid_cases, peak_doubles, relative_max_error

SPOT_CHECKS = [
    (3, 2.05, 1.0),
    (4, -2.5, -0.5),
    (5, 2.5, 2.0),
    (8, 5.0, 3.0),
    (16, -2.05, 1.0),
    (64, 100.0, -0.5),
    (200, -2.5, 1.0),
]


def _spec(n, d, a):
    return SystemSpec(n, d * a, a)


def _exact_inverse_first_row(n, c, a):
    """Rational-arithmetic elimination oracle, independent of everything."""
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = Fraction(c)
        matrix[i][(i + 1) % n] = Fraction(a)
        matrix[i][(i - 1) % n] = Fraction(a)
    rhs = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(matrix[r][col]))
        matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
        for row in range(col + 1, n):
            factor = matrix[row][col] / matrix[col][col]
            if factor == 0:
                continue
            for k in range(col, n):
                matrix[row][k] -= factor * matrix[col][k]
            rhs[row] -= factor * rhs[col]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = rhs[row] - sum(matrix[row][k] * x[k] for k in range(row + 1, n))
        x[row] = acc / matrix[row][row]
    return x


def _exact_tridiagonal_inverse(n, c, a):
    """Rational LU (Thomas) solves against each unit vector, independent of everything.

    The inverse is symmetric, so the solution columns are returned as rows.
    """
    c, a = Fraction(c), Fraction(a)
    pivots = [c]
    for _ in range(n - 1):
        pivots.append(c - a * a / pivots[-1])
    columns = []
    for j in range(n):
        y = [Fraction(0)] * n
        y[j] = Fraction(1)
        for i in range(j + 1, n):
            y[i] = -a / pivots[i - 1] * y[i - 1]
        x = [Fraction(0)] * n
        x[-1] = y[-1] / pivots[-1]
        for i in range(n - 2, -1, -1):
            x[i] = (y[i] - a * x[i + 1]) / pivots[i]
        columns.append(x)
    return columns


def _condition_number(spec, circulant):
    # Both matrices are symmetric with eigenvalues c + 2a cos(theta_k).
    n = spec.n
    if circulant:
        theta = 2 * np.pi * np.arange(n) / n
    else:
        theta = np.pi * np.arange(1, n + 1) / (n + 1)
    magnitudes = np.abs(spec.c + 2 * spec.a * np.cos(theta))
    return magnitudes.max() / magnitudes.min()


# Orders up to 31 keep the rational oracles cheap; the permissive ratios
# stay clear of the zero pivots f_i = 0.
EXACT_CASES = [
    (n, d, a, True)
    for n in (3, 4, 8, 13, 31)
    for d in (2.0001, 2.05, -2.5, 4.0, -100.0)
    for a in (1.0, -0.75, 3.0)
] + [
    (n, d, a, False)
    for n in (5, 8, 13, 20, 31)
    for d in (1.9, -1.99, 0.3, -1.3)
    for a in (1.0, -2.0)
]


class TestFirstRow:
    def test_fixture_exact_fractions(self):
        row = inverse_first_row(decompose(SystemSpec(5, 5.0, 2.0)))
        exact = [31 / 99, -14 / 99, 4 / 99, 4 / 99, -14 / 99]
        assert_allclose(row, exact, rtol=1e-12, atol=0)
        assert_allclose(
            row, [0.313131, -0.141414, 0.040404, 0.040404, -0.141414], atol=1e-5
        )

    @pytest.mark.parametrize("n, c, a", [(4, 10, 1), (6, 7, 2), (7, -9, 3), (11, 23, -4)])
    def test_matches_rational_elimination(self, n, c, a):
        row = inverse_first_row(decompose(SystemSpec(n, float(c), float(a))))
        exact = np.array(
            [float(v) for v in _exact_inverse_first_row(n, c, a)]
        )
        assert np.abs(row - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("n, d, a", SPOT_CHECKS)
    def test_matches_spectral_oracle(self, n, d, a):
        spec = _spec(n, d, a)
        row = inverse_first_row(decompose(spec))
        reference = spectral_inverse_first_row(spec)
        scale = np.abs(row).max()
        assert np.abs(row - reference).max() <= 1e-9 * scale

    @pytest.mark.parametrize("n", [1024, 4096, 10_000])
    @pytest.mark.parametrize("d", [2.0001, -2.0001])
    def test_matches_spectral_oracle_at_large_orders(self, n, d):
        # The FFT oracle makes these orders cheap; the bound is 64 kappa eps.
        spec = _spec(n, d, 1.0)
        row = inverse_first_row(decompose(spec))
        kappa = (abs(d) + 2.0) / (abs(d) - 2.0)
        bound = 64 * kappa * np.finfo(float).eps * np.abs(row).max()
        assert np.abs(row - spectral_inverse_first_row(spec)).max() <= bound

    @pytest.mark.parametrize("n, d, a", SPOT_CHECKS)
    def test_palindrome_symmetry(self, n, d, a):
        # Row 1 of the inverse of a symmetric circulant satisfies
        # v_j = v_{n+2-j} (1-based), i.e. v[1:] reversed equals itself.
        row = inverse_first_row(decompose(_spec(n, d, a)))
        scale = np.abs(row).max()
        assert np.abs(row[1:] - row[1:][::-1]).max() <= 1e-12 * scale

    def test_rejects_tridiagonal(self):
        fct = decompose_tridiagonal(SystemSpec(5, 5.0, 2.0))
        with pytest.raises(VariantMismatchError):
            inverse_first_row(fct)

    def test_palindrome_is_exact(self):
        for n, d, a in grid_cases():
            row = inverse_first_row(decompose(_spec(n, d, a)))
            assert np.array_equal(row[1:], row[:0:-1]), (n, d, a)

    def test_singular_closure_scalar_raises(self):
        good = decompose(SystemSpec(5, 5.0, 2.0))
        fct = Factorization(good.spec, good.f, good.r, 0.0)
        with pytest.raises(SingularPivotError):
            inverse_first_row(fct)

    @pytest.mark.parametrize(
        "n, d, a",
        [
            (70518, 2.0001, 1.0),
            (70518, -2.0001, 3e150),
            (1023, 2.5, 1e-200),
            (1023, 2.5, 3e150),
            (154, 100.0, 1e-200),
            (154, -100.0, 3e150),
        ],
    )
    def test_backward_error_at_the_edge_of_the_range(self, n, d, a):
        # |f_{n+1}| is near the largest double, and a scales entries by up
        # to 10**+-200; A v = e_1 must still hold to machine precision.
        spec = _spec(n, d, a)
        row = inverse_first_row(decompose(spec))
        residual = spec.c * row + spec.a * (np.roll(row, 1) + np.roll(row, -1))
        residual[0] -= 1.0
        norm_a = abs(spec.c) + 2 * abs(spec.a)
        backward = np.abs(residual).max() / (norm_a * np.abs(row).max() + 1.0)
        assert backward <= 1e-15

    @pytest.mark.parametrize("n, d, a, strict", EXACT_CASES)
    def test_matches_exact_rational_inverse(self, n, d, a, strict):
        spec = SystemSpec(n, d * a, a, strict)
        row = inverse_first_row(decompose(spec))
        exact = np.array([float(v) for v in _exact_inverse_first_row(n, spec.c, a)])
        bound = 64 * _condition_number(spec, True) * np.finfo(float).eps
        assert np.abs(row - exact).max() <= bound * np.abs(exact).max()


class TestInverseDense:
    def test_diagonal_fixture(self):
        # n = 4, c = 10, a = 1: every diagonal entry is exactly 49/480.
        inv = inverse_dense(decompose(SystemSpec(4, 10.0, 1.0)))
        assert_allclose(np.diag(inv), np.full(4, 49 / 480), rtol=1e-13)

    @pytest.mark.parametrize("n, d, a", SPOT_CHECKS)
    def test_left_and_right_identity_circulant(self, n, d, a):
        spec = _spec(n, d, a)
        inv = inverse_dense(decompose(spec))
        dense = build_dense(spec)
        identity = np.eye(n)
        assert np.abs(inv @ dense - identity).max() <= 1e-10
        assert np.abs(dense @ inv - identity).max() <= 1e-10

    @pytest.mark.parametrize("n, d, a", SPOT_CHECKS)
    def test_identity_tridiagonal(self, n, d, a):
        spec = _spec(n, d, a)
        inv = inverse_dense(decompose_tridiagonal(spec))
        dense = build_dense(spec, variant=TRIDIAGONAL)
        assert np.abs(inv @ dense - np.eye(n)).max() <= 1e-10

    def test_symmetry_bound(self):
        inv = inverse_dense(decompose(SystemSpec(64, -4.7, 1.5)))
        assert np.abs(inv - inv.T).max() <= 1e-13 * np.abs(inv).max()

    def test_first_row_consistency(self):
        spec = SystemSpec(24, 13.0, 5.0)
        fct = decompose(spec)
        inv = inverse_dense(fct)
        row = inverse_first_row(fct)
        assert np.abs(inv[0] - row).max() <= 1e-12 * np.abs(row).max()

    def test_circulant_inverse_is_circulant(self):
        spec = SystemSpec(17, -5.5, 2.0)
        inv = inverse_dense(decompose(spec))
        scale = np.abs(inv).max()
        for shift in (1, 5):
            rolled = np.roll(np.roll(inv, shift, axis=0), shift, axis=1)
            assert np.abs(inv - rolled).max() <= 1e-12 * scale

    def test_matches_solve_columns(self):
        spec = SystemSpec(10, 2.9, -1.0)
        fct = decompose(spec)
        inv = inverse_dense(fct)
        dense = build_dense(spec)
        reference = np.linalg.solve(dense, np.eye(10))
        assert relative_max_error(inv, reference) <= 1e-12

    def test_steep_decay_handled_without_underflow_artifacts(self):
        # Entries decay geometrically away from the diagonal; at n = 200 and
        # |d| = 5 the far corners sit 130+ orders of magnitude below the
        # diagonal and must still be finite and symmetric.
        spec = SystemSpec(200, -10.0, 2.0)
        inv = inverse_dense(decompose(spec))
        assert np.isfinite(inv).all()
        dense = build_dense(spec)
        assert np.abs(inv @ dense - np.eye(200)).max() <= 1e-10

    def test_size_guard(self):
        n = 10_001
        fake = Factorization(
            SystemSpec(n, 5.0, 2.0), np.ones(n + 2), np.ones(n - 1), 1.0
        )
        with pytest.raises(SizeGuardError):
            inverse_dense(fake)


@pytest.mark.parametrize("decomposer", [decompose, decompose_tridiagonal])
def test_inverse_dense_peak_memory(decomposer):
    # The result itself is n^2 doubles; no n x n scratch array may join it.
    n = 512
    fct = decomposer(SystemSpec(n, 2.05, 1.0))
    assert peak_doubles(inverse_dense, fct) <= 1.2 * n * n


@pytest.mark.parametrize(
    "n, d, a", [(154, 100.0, 1e-200), (1022, 2.5, 1.0)], ids=["d100-n154", "d2.5-n1022"]
)
def test_tridiagonal_inverse_at_the_edge_of_the_range(n, d, a):
    # |f_{n+1}| is near the largest double, so the suffix sums run on a
    # working scale of 2**1022.
    spec = _spec(n, d, a)
    inv = inverse_dense(decompose_tridiagonal(spec))
    assert np.array_equal(inv, inv.T)
    dense = build_dense(spec, variant=TRIDIAGONAL)
    assert np.abs(inv @ dense - np.eye(n)).max() <= 1e-10


@pytest.mark.parametrize("n, c, a", [(8, 3e-310, 1e-310), (64, 2.5e-309, 1e-309)])
def test_tridiagonal_inverse_beyond_the_range_raises(n, c, a):
    # Entries f_i G_j / a overflow for a subnormal a; the error comes first,
    # with no numpy warning ahead of it.
    fct = decompose_tridiagonal(SystemSpec(n, c, a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GrowthOverflowError):
            inverse_dense(fct)


@pytest.mark.parametrize("n, d, a, strict", EXACT_CASES)
def test_tridiagonal_inverse_matches_exact_rational_inverse(n, d, a, strict):
    spec = SystemSpec(n, d * a, a, strict)
    inv = inverse_dense(decompose_tridiagonal(spec))
    exact = np.array(
        [[float(v) for v in row] for row in _exact_tridiagonal_inverse(n, spec.c, a)]
    )
    bound = 64 * _condition_number(spec, False) * np.finfo(float).eps
    assert np.abs(inv - exact).max() <= bound * np.abs(exact).max()


@pytest.mark.parametrize("n, c, a", [(8, 3e-310, 1e-310), (64, 2.5e-309, 1e-309)])
@pytest.mark.parametrize("inverse", [inverse_first_row, inverse_dense])
def test_circulant_inverse_beyond_the_range_raises(inverse, n, c, a):
    # Entries of order 1 / a overflow for a subnormal a; the error comes
    # first, with no numpy warning ahead of it.
    fct = decompose(SystemSpec(n, c, a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GrowthOverflowError):
            inverse(fct)


@pytest.mark.parametrize("decomposer", [decompose, decompose_tridiagonal])
def test_inverses_run_no_solver_pass(decomposer):
    fct = decomposer(SystemSpec(16, 2.5, 1.0))
    with count_operations() as counter:
        inverse_dense(fct)
        if fct.variant != TRIDIAGONAL:
            inverse_first_row(fct)
    assert counter.total == 0


def test_circulant_inverse_rows_are_exact_rolls():
    inv = inverse_dense(decompose(SystemSpec(37, -5.5, 2.0)))
    assert np.array_equal(inv, inv.T)
    for i in range(37):
        assert np.array_equal(inv[i], np.roll(inv[0], i))
