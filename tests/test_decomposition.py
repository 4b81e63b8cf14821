import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from circkr import (
    CIRCULANT,
    TRIDIAGONAL,
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

from grids import peak_doubles, relative_max_error

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

    def test_permissive_singular_ratio(self):
        with pytest.raises(SingularPivotError):
            decompose(SystemSpec(5, -2.0, 1.0, strict=False))
        # The tridiagonal variant has no closure scalar, so the same ratio
        # factorizes fine there.
        fct = decompose_tridiagonal(SystemSpec(5, -2.0, 1.0, strict=False))
        assert_array_equal(fct.f, np.arange(7, dtype=float))


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
