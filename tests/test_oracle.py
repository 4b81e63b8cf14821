import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from circkr import (
    DimensionMismatchError,
    SingularEigenvalueError,
    SingularMatrixError,
    SizeGuardError,
    SystemSpec,
    build_dense,
    dense_solve,
    spectral_inverse_first_row,
    spectral_solve,
)

from grids import grid_cases, peak_doubles


def textbook_dense_solve(matrix, rhs):
    """The plain elimination ``dense_solve`` must reproduce byte for byte:
    every step swaps and updates the full trailing matrix and the
    right-hand sides separately."""
    work = np.array(matrix, dtype=float)
    if work.ndim != 2 or work.shape[0] != work.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got shape {work.shape}")
    n = work.shape[0]
    b = np.array(rhs, dtype=float)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side must have leading dimension {n}, got shape {b.shape}"
        )
    pivot_floor = n * np.finfo(float).eps * max(np.abs(work).max(), np.finfo(float).tiny)
    for k in range(n):
        lead = k + int(np.argmax(np.abs(work[k:, k])))
        if abs(work[lead, k]) <= pivot_floor:
            raise SingularMatrixError(
                f"zero pivot in column {k + 1} after partial pivoting"
            )
        if lead != k:
            work[[k, lead]] = work[[lead, k]]
            b[[k, lead]] = b[[lead, k]]
        factors = work[k + 1 :, k] / work[k, k]
        work[k + 1 :, k:] -= np.outer(factors, work[k, k:])
        b[k + 1 :] -= np.outer(factors, b[k])
    x = np.empty_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - work[k, k + 1 :] @ x[k + 1 :]) / work[k, k]
    return x[:, 0] if single else x


def outcome(solver, matrix, rhs):
    """Result bytes and shape, or the error's type and message."""
    try:
        with np.errstate(all="ignore"):
            x = solver(matrix, rhs)
    except (DimensionMismatchError, SingularMatrixError) as err:
        return type(err), str(err)
    return x.shape, x.tobytes()


def right_hand_sides(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n), rng.standard_normal((n, 3)), np.empty((n, 0))]


class TestBuildDense:
    def test_circulant_layout(self):
        dense = build_dense(SystemSpec(4, 10.0, 1.0))
        assert_array_equal(
            dense,
            [
                [10.0, 1.0, 0.0, 1.0],
                [1.0, 10.0, 1.0, 0.0],
                [0.0, 1.0, 10.0, 1.0],
                [1.0, 0.0, 1.0, 10.0],
            ],
        )

    def test_tridiagonal_layout(self):
        dense = build_dense(SystemSpec(4, 10.0, 1.0), variant="tridiagonal")
        assert dense[0, 3] == 0.0 and dense[3, 0] == 0.0
        assert_array_equal(np.diag(dense), np.full(4, 10.0))
        assert_array_equal(np.diag(dense, 1), np.full(3, 1.0))

    def test_minimal_order_corners_overlay(self):
        # At n = 3 the corner entries coincide with the outer off-diagonal
        # positions of a full matrix; both orientations must carry a once.
        dense = build_dense(SystemSpec(3, 9.0, 2.0))
        assert_array_equal(
            dense, [[9.0, 2.0, 2.0], [2.0, 9.0, 2.0], [2.0, 2.0, 9.0]]
        )

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            build_dense(SystemSpec(4, 10.0, 1.0), variant="banded")

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            build_dense(SystemSpec(10_001, 5.0, 2.0))


class TestDenseSolve:
    def test_known_small_system(self):
        matrix = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert_allclose(dense_solve(matrix, np.array([3.0, 4.0])), [1.0, 1.0])

    def test_pivoting_handles_zero_leading_entry(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(dense_solve(matrix, np.array([5.0, 7.0])), [7.0, 5.0])

    @pytest.mark.parametrize("n", [3, 7, 25, 80])
    def test_matches_numpy_on_random_systems(self, n):
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        assert_allclose(
            dense_solve(matrix, b), np.linalg.solve(matrix, b), rtol=1e-10, atol=1e-12
        )

    def test_block_right_hand_side(self):
        rng = np.random.default_rng(99)
        matrix = rng.standard_normal((12, 12)) + 12 * np.eye(12)
        block = rng.standard_normal((12, 4))
        got = dense_solve(matrix, block)
        assert got.shape == (12, 4)
        assert_allclose(got, np.linalg.solve(matrix, block), rtol=1e-10, atol=1e-12)

    def test_rows_without_multiplier_stay_untouched(self):
        # After the swap the second row has no entry in the pivot column, so
        # elimination leaves it as it is; a full update would add 0 * inf.
        x = dense_solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([5.0, np.inf]))
        assert_array_equal(x, [np.inf, 5.0])

    def test_singular_matrix_raises(self):
        matrix = np.ones((3, 3))
        with pytest.raises(SingularMatrixError, match="column"):
            dense_solve(matrix, np.ones(3))

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            dense_solve(np.ones((3, 4)), np.ones(3))
        with pytest.raises(DimensionMismatchError):
            dense_solve(np.eye(3), np.ones(4))

    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    @pytest.mark.parametrize("n", [3, 4, 17, 64])
    def test_family_matches_textbook_bytes(self, n, variant):
        # Strict and permissive ratios (-2 makes the circulant singular),
        # with tiny and huge off-diagonals.
        for d in (2.05, -2.5, 5.0, 100.0, 1.3, 0.5, -2.0):
            for a in (0.7, -3e5, 1e-200, 1e200):
                dense = build_dense(SystemSpec(n, d * a, a, strict=False), variant)
                for rhs in right_hand_sides(n, n):
                    assert outcome(dense_solve, dense, rhs) == outcome(
                        textbook_dense_solve, dense, rhs
                    ), (d, a, rhs.shape)

    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_family_matches_textbook_bytes_at_check_order(self, variant):
        # The cli benchmark's check order and ratios, and a permissive ratio
        # at which elimination swaps rows at almost every step.
        n = 256
        for d in (2.5, 4.0, 0.5):
            for a in (1.3, -0.7):
                dense = build_dense(SystemSpec(n, d * a, a, strict=False), variant)
                for rhs in right_hand_sides(n, n):
                    assert outcome(dense_solve, dense, rhs) == outcome(
                        textbook_dense_solve, dense, rhs
                    ), (d, a, rhs.shape)

    @pytest.mark.parametrize("n", [2, 5, 33, 90])
    def test_random_dense_matches_textbook_bytes(self, n):
        # No diagonal boost, so elimination swaps rows at most steps.
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            matrix = rng.standard_normal((n, n))
            for rhs in right_hand_sides(n, n):
                assert outcome(dense_solve, matrix, rhs) == outcome(
                    textbook_dense_solve, matrix, rhs
                )

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            (np.ones((3, 3)), np.ones(3)),
            (np.ones((3, 4)), np.ones(3)),
            (np.eye(3), np.ones(4)),
            (np.eye(3), np.ones((3, 2, 1))),
            (np.array(5.0), np.ones(1)),
            ([[0.0, 1.0], [1.0, 0.0]], [5.0, 7.0]),
        ],
    )
    def test_edge_cases_match_textbook(self, matrix, rhs):
        assert outcome(dense_solve, matrix, rhs) == outcome(
            textbook_dense_solve, matrix, rhs
        )

    def test_peak_is_one_work_buffer(self):
        n = 512
        dense = build_dense(SystemSpec(n, 2.05, 1.0))
        block = np.random.default_rng(3).standard_normal((n, 3))
        assert peak_doubles(dense_solve, dense, block) <= 1.1 * n * n

    def test_family_solve_skips_unchanged_rows(self):
        # Each step changes O(1) rows of this matrix, so elimination is O(n^2).
        dense = build_dense(SystemSpec(2000, 2.01, 1.0))
        block = np.random.default_rng(4).standard_normal((2000, 3))
        start = time.perf_counter()
        dense_solve(dense, block)
        assert time.perf_counter() - start < 2.0

    def test_does_not_mutate_inputs(self):
        matrix = np.array([[4.0, 1.0], [1.0, 4.0]])
        b = np.array([1.0, 2.0])
        snapshot_m, snapshot_b = matrix.copy(), b.copy()
        dense_solve(matrix, b)
        assert_array_equal(matrix, snapshot_m)
        assert_array_equal(b, snapshot_b)


class TestSpectral:
    def test_fixture_first_row(self):
        spec = SystemSpec(5, 5.0, 2.0)
        row = spectral_inverse_first_row(spec)
        assert_allclose(
            row, [31 / 99, -14 / 99, 4 / 99, 4 / 99, -14 / 99], rtol=0, atol=1e-14
        )

    @pytest.mark.parametrize("n, c, a, rtol", [
        (16, 6.0, -2.0, 1e-13),
        *[(n, c, a, 1e-12) for n in (9, 10, 255, 256)
          for c, a in ((-7.0, 2.5), (2.0001, 1.0), (5.0, -2.0))],
    ])
    def test_matches_dense_inverse(self, n, c, a, rtol):
        # The FFT row against an independent reference, the dense inverse.
        # Near c = 2|a| the matrix is ill-conditioned, and the two differ
        # by up to 3.1e-13 at n = 255.
        spec = SystemSpec(n, c, a)
        reference = np.linalg.inv(build_dense(spec))[0]
        row = spectral_inverse_first_row(spec)
        assert np.abs(row - reference).max() <= rtol * np.abs(reference).max()

    def test_singular_eigenvalue_detected(self):
        # c = -2a makes the j = 0 eigenvalue exactly zero.
        spec = SystemSpec(6, -2.0, 1.0, strict=False)
        with pytest.raises(SingularEigenvalueError):
            spectral_inverse_first_row(spec)

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            spectral_inverse_first_row(SystemSpec(10_001, 5.0, 2.0))


class TestSpectralSolve:
    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    @pytest.mark.parametrize("n, d, a", grid_cases())
    def test_matches_dense_solve_on_strict_grid(self, n, d, a, variant):
        spec = SystemSpec(n, d * a, a)
        dense = build_dense(spec, variant)
        bound = 64 * np.linalg.cond(dense) * np.finfo(float).eps
        for rhs in right_hand_sides(n, n)[:2]:
            got = spectral_solve(spec, rhs, variant)
            assert got.shape == rhs.shape
            reference = dense_solve(dense, rhs)
            assert np.abs(got - reference).max() <= bound * np.abs(reference).max()

    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_empty_block_keeps_its_shape(self, variant):
        assert spectral_solve(SystemSpec(6, 5.0, 2.0), np.empty((6, 0)), variant).shape == (6, 0)

    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    @pytest.mark.parametrize("shape", [(4,), (6,), (4, 2), (5, 2, 1), ()])
    def test_shape_validation(self, variant, shape):
        with pytest.raises(DimensionMismatchError):
            spectral_solve(SystemSpec(5, 5.0, 2.0), np.ones(shape), variant)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            spectral_solve(SystemSpec(4, 10.0, 1.0), np.ones(4), "banded")

    @pytest.mark.parametrize("n", [3, 4, 7, 64])
    def test_circulant_singular_eigenvalue(self, n):
        # d = -2 makes the j = 0 eigenvalue exactly zero.
        spec = SystemSpec(n, -2.0, 1.0, strict=False)
        with pytest.raises(SingularEigenvalueError, match="circulant eigenvalue 0"):
            spectral_solve(spec, np.ones(n))

    @pytest.mark.parametrize("n", [3, 4, 7, 64])
    def test_tridiagonal_singular_eigenvalue(self, n):
        # d = -2 cos(pi / (n+1)) zeroes the k = 1 eigenvalue up to rounding.
        spec = SystemSpec(n, -2.0 * np.cos(np.pi / (n + 1)), 1.0, strict=False)
        with pytest.raises(SingularEigenvalueError, match="tridiagonal eigenvalue 1"):
            spectral_solve(spec, np.ones(n), "tridiagonal")

    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_does_not_mutate_inputs(self, variant):
        for rhs in right_hand_sides(9, 9)[:2]:
            snapshot = rhs.copy()
            rhs.flags.writeable = False
            spectral_solve(SystemSpec(9, -7.0, 2.5), rhs, variant)
            assert_array_equal(rhs, snapshot)
