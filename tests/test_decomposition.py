import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from circkr import (
    CIRCULANT,
    TRIDIAGONAL,
    CircKRError,
    Factorization,
    GrowthOverflowError,
    SingularPivotError,
    SizeGuardError,
    SystemSpec,
    build_dense,
    compute_g,
    decompose,
    decompose_tridiagonal,
    generate_f,
    generate_r,
    materialize,
    reconstruct,
)
from circkr.factors import _r_pass

from grids import grid_cases, peak_doubles, relative_max_error

SPOT_CHECKS = [
    (3, 2.05, 1.0),
    (4, -2.5, -0.5),
    (5, 2.5, 2.0),
    (8, -5.0, 3.0),
    (16, 100.0, 1.0),
    (64, -2.05, -0.5),
    (200, 2.5, 3.0),
]


def _spec(n, d, a):
    return SystemSpec(n, d * a, a)


class TestDecompose:
    def test_fixture_components(self):
        spec = SystemSpec(5, 5.0, 2.0)
        fct = decompose(spec)
        assert fct.variant == CIRCULANT
        f = generate_f(spec, 6)
        assert_array_equal(fct.f, f)
        assert_array_equal(fct.r, generate_r(f, 5))
        assert fct.g == compute_g(f, fct.r, 5)
        assert fct.g == 34.03125

    def test_tridiagonal_fixture_components(self):
        spec = SystemSpec(5, 5.0, 2.0)
        fct = decompose_tridiagonal(spec)
        assert fct.variant == TRIDIAGONAL
        assert fct.r.size == 0
        assert fct.g is None
        assert_array_equal(fct.f, generate_f(spec, 6))

    def test_deterministic(self):
        spec = SystemSpec(64, -4.3, 2.0)
        one, two = decompose(spec), decompose(spec)
        assert one.f.tobytes() == two.f.tobytes()
        assert one.r.tobytes() == two.r.tobytes()
        assert one.g == two.g

    def test_overflow_reports_max_safe_order(self):
        with pytest.raises(GrowthOverflowError) as excinfo:
            decompose(SystemSpec(2000, 5.0, 2.0))
        err = excinfo.value
        assert err.max_safe_n == 1023
        assert err.failing_index == 1025
        assert err.growth_ratio == pytest.approx(2.0)
        assert "max safe n = 1023" in str(err)

    def test_overflow_boundary_order(self):
        # n = 1023 needs f_1024, the last finite value for d = 2.5.
        fct = decompose(SystemSpec(1023, 5.0, 2.0))
        assert np.isfinite(fct.f).all() and np.isfinite(fct.g)
        with pytest.raises(GrowthOverflowError):
            decompose(SystemSpec(1024, 5.0, 2.0))
        with pytest.raises(GrowthOverflowError):
            decompose_tridiagonal(SystemSpec(1024, 5.0, 2.0))

    def test_overflow_stops_early_for_a_huge_order(self):
        # d = 2.5 overflows at f_1025.  A generator that ran all 10**7 steps
        # before checking would take about 1 s; the CLI and _max_safe_n in
        # test_solver rely on the early stop.  Nor may it allocate the m + 1
        # doubles it will never reach: 80 MB at 10**7, 8 TB at 10**12.
        def overflow(n):
            with pytest.raises(GrowthOverflowError) as excinfo:
                decompose(SystemSpec(n, 2.5, 1.0))
            assert excinfo.value.max_safe_n == 1023

        for n in (10**7, 10**12):
            elapsed = []
            for _ in range(3):
                start = time.perf_counter()
                overflow(n)
                elapsed.append(time.perf_counter() - start)
            assert min(elapsed) < 0.05
            assert peak_doubles(overflow, n) * 8 < 1e6

    def test_equals_its_public_stages_bit_for_bit(self):
        # decompose skips the input checks of generate_r and compute_g; it
        # must still give exactly what the checked stages give.
        for n, d, a in grid_cases():
            spec = _spec(n, d, a)
            f = generate_f(spec, n + 1)
            r = generate_r(f, n)
            staged = Factorization(spec, f, r, compute_g(f, r, n))
            fct = decompose(spec)
            assert fct.f.tobytes() == staged.f.tobytes(), (n, d, a)
            assert fct.r.tobytes() == staged.r.tobytes(), (n, d, a)
            assert repr(fct.g) == repr(staged.g), (n, d, a)

    @pytest.mark.parametrize(
        "n, d, strict, kind, restated",
        [
            (64, -2.000000000001, False, "Inconsistency", False),
            (5, -2.0, False, "SingularPivot", False),
            (2000, 2.5, True, "Overflow", True),
            # f is finite, but r holds both +inf and -inf.
            (5, 1e-310, False, "Overflow", False),
            (7, 0.0, False, "ZeroPivot", False),
        ],
    )
    def test_raises_what_its_public_stages_raise(self, n, d, strict, kind, restated):
        # decompose runs its own r and g path and skips Factorization's
        # checks; it must still fail where the checked stages fail, with
        # the same error.  Only the overflow of r's division is let pass
        # quietly, as both paths make it; any other floating-point warning
        # fails the test.
        spec = SystemSpec(n, d, 1.0, strict=strict)

        def staged():
            f = generate_f(spec, n + 1)
            r = generate_r(f, n)
            return Factorization(spec, f, r, compute_g(f, r, n))

        with np.errstate(over="ignore"):
            with pytest.raises(CircKRError) as expected:
                staged()
            with pytest.raises(CircKRError) as got:
                decompose(spec)
        want, err = expected.value, got.value
        assert want.kind == kind
        assert type(err) is type(want)
        if restated:
            # decompose restates generate_f's overflow for the whole order.
            assert err.failing_index == want.failing_index
            assert err.max_safe_n == want.max_safe_m - 1
            assert f"but f_{want.failing_index} exceeds the 64-bit range" in str(err)
        else:
            assert str(err) == str(want)

    def test_permissive_singular_ratio(self):
        with pytest.raises(SingularPivotError):
            decompose(SystemSpec(5, -2.0, 1.0, strict=False))
        # The tridiagonal variant has no closure scalar, so the same ratio
        # factorizes fine there.
        fct = decompose_tridiagonal(SystemSpec(5, -2.0, 1.0, strict=False))
        assert_array_equal(fct.f, np.arange(7, dtype=float))

    def test_permissive_tiny_pivot_overflows_without_warning(self):
        # d = 1e-310 gives f_2 = -1e-310, so r_1 = f_5 / (f_2 f_1) leaves
        # the range; pytest turns a numpy warning ahead of it into a failure.
        with pytest.raises(GrowthOverflowError, match="r_1 exceeds the 64-bit range"):
            decompose(SystemSpec(5, 1e-310, 1.0, strict=False))


def row_by_row_reconstruct(fct):
    """reconstruct as one pass over the whole matrix, its K^-1 sweep one
    row at a time, bottom-up: the reference the row-block kernel must
    reproduce byte for byte."""
    n = fct.spec.n
    out = materialize(fct, "A1").T
    if fct.variant == CIRCULANT:
        _r_pass(fct, out.T, -1.0)
    for i in range(n - 1, 0, -1):
        out[i] -= out[i - 1]
    out /= fct.f[1 : n + 1][:, None]
    out *= fct.spec.a
    return out


class TestReconstruct:
    @pytest.mark.parametrize("n, d, a", SPOT_CHECKS)
    def test_matches_direct_construction_circulant(self, n, d, a):
        spec = _spec(n, d, a)
        dense = reconstruct(decompose(spec))
        expected = build_dense(spec)
        assert relative_max_error(dense, expected) <= 1e-10

    @pytest.mark.parametrize("n, d, a", SPOT_CHECKS)
    def test_matches_direct_construction_tridiagonal(self, n, d, a):
        spec = _spec(n, d, a)
        dense = reconstruct(decompose_tridiagonal(spec))
        expected = build_dense(spec, variant=TRIDIAGONAL)
        assert relative_max_error(dense, expected) <= 1e-10

    def test_matches_explicit_factor_product(self):
        # Independent dense route: a * K^-1 * R^-1 * A1^T multiplied out.
        spec = SystemSpec(12, -7.3, 2.5)
        fct = decompose(spec)
        product = spec.a * (
            materialize(fct, "K_inv")
            @ materialize(fct, "R_inv")
            @ materialize(fct, "A1").T
        )
        assert_allclose(reconstruct(fct), product, rtol=0, atol=1e-12)

    def test_minimal_order(self):
        spec = SystemSpec(3, 9.0, -4.0)
        expected = np.array(
            [[9.0, -4.0, -4.0], [-4.0, 9.0, -4.0], [-4.0, -4.0, 9.0]]
        )
        assert_allclose(reconstruct(decompose(spec)), expected, rtol=0, atol=1e-13)

    def test_reconstruction_is_exactly_symmetric_structure(self):
        spec = SystemSpec(8, 5.0, 2.0)
        dense = reconstruct(decompose(spec))
        # Off the three diagonals and the two corners everything must be
        # numerically negligible, not just small.
        mask = np.zeros((8, 8), dtype=bool)
        idx = np.arange(8)
        mask[idx, idx] = True
        mask[idx[:-1], idx[1:]] = True
        mask[idx[1:], idx[:-1]] = True
        mask[0, 7] = mask[7, 0] = True
        assert np.abs(dense[~mask]).max() <= 1e-12

    @pytest.mark.parametrize("decomposer", [decompose, decompose_tridiagonal])
    # Blocks of 2**14 // n rows: one block up to n = 128, the last block
    # full at 256 and partial at 129, 255, 257 and 1000.
    @pytest.mark.parametrize(
        "n", [3, 4, 16, 17, 18, 32, 33, 34, 65, 129, 255, 256, 257, 1000]
    )
    def test_matches_row_by_row_sweep_bytes(self, n, decomposer):
        # Strict and permissive ratios, at tiny and huge scales.
        for d in (2.05, -2.5, 1.3, -0.7):
            for a in (1.3, -0.7, 1e-200, 3e300):
                fct = decomposer(SystemSpec(n, d * a, a, strict=False))
                assert reconstruct(fct).tobytes() == row_by_row_reconstruct(fct).tobytes()

    def test_size_guard(self):
        n = 10_001
        fake = Factorization(
            SystemSpec(n, 5.0, 2.0), np.ones(n + 2), np.ones(n - 1), 1.0
        )
        with pytest.raises(SizeGuardError):
            reconstruct(fake)


@pytest.mark.parametrize("decomposer", [decompose, decompose_tridiagonal])
@pytest.mark.parametrize(
    "dense_path",
    [reconstruct, lambda fct: materialize(fct, "A1_inv")],
    ids=["reconstruct", "A1_inv"],
)
def test_dense_paths_peak_memory(dense_path, decomposer):
    # The result plus at most one more n x n array's worth of scratch.
    n = 512
    fct = decomposer(SystemSpec(n, 2.05, 1.0))
    assert peak_doubles(dense_path, fct) <= 2.0 * n * n
