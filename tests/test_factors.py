import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from circkr import (
    CIRCULANT,
    TRIDIAGONAL,
    DimensionMismatchError,
    Factorization,
    GrowthOverflowError,
    SizeGuardError,
    SystemSpec,
    VariantMismatchError,
    ZeroPivotError,
    apply_k,
    apply_k_inverse,
    apply_r,
    apply_r_inverse,
    decompose,
    decompose_tridiagonal,
    generate_f,
    materialize,
)
from circkr import factors
from circkr.factors import FACTOR_NAMES, VARIANTS, a1_inverse_last_row

from grids import GRID_D, IDENTITY_N, peak_doubles

SAMPLE_D = (2.05, -2.05, 2.5, -5.0, 100.0)


@pytest.fixture
def fct5():
    return decompose(SystemSpec(5, 5.0, 2.0))


@pytest.fixture
def trid5():
    return decompose_tridiagonal(SystemSpec(5, 5.0, 2.0))


def _five(variant):
    make = decompose if variant == CIRCULANT else decompose_tridiagonal
    return make(SystemSpec(5, 5.0, 2.0))


def _cases(variant=CIRCULANT):
    make = decompose if variant == CIRCULANT else decompose_tridiagonal
    return [
        make(SystemSpec(n, 2.0 * d, 2.0)) for n in IDENTITY_N for d in SAMPLE_D
    ]


class TestFactorizationContainer:
    def test_arrays_are_copied_and_frozen(self):
        spec = SystemSpec(5, 5.0, 2.0)
        f = generate_f(spec, 6)
        fct = decompose(spec)
        with pytest.raises(ValueError):
            fct.f[0] = 99.0
        with pytest.raises(ValueError):
            fct.r[0] = 99.0
        assert fct.n == 5
        assert_array_equal(fct.f, f)

    def test_every_input_is_copied(self):
        spec = SystemSpec(5, 5.0, 2.0)
        built = decompose(spec)
        # Read-only arrays that own their memory, as decompose hands over.
        copied = Factorization(spec, built.f, built.r, built.g)
        assert copied.f is not built.f and copied.r is not built.r
        assert copied.f.tobytes() == built.f.tobytes()
        assert copied.r.tobytes() == built.r.tobytes()
        assert not (copied.f.flags.writeable or copied.r.flags.writeable)
        f, r = built.f.copy(), built.r.copy()
        fct = Factorization(spec, f, r, built.g)
        assert f.flags.writeable and r.flags.writeable
        f[1] = r[0] = 99.0
        assert fct.f[1] == 1.0 and fct.r[0] == built.r[0]
        # A read-only view of writable memory is copied too.
        view = f[:]
        view.flags.writeable = False
        assert Factorization(spec, view, built.r, built.g).f is not view

    def test_shape_validation(self):
        spec = SystemSpec(5, 5.0, 2.0)
        f = generate_f(spec, 6)
        with pytest.raises(DimensionMismatchError):
            Factorization(spec, f[:-1], np.zeros(4), 1.0)
        with pytest.raises(DimensionMismatchError):
            Factorization(spec, f, np.zeros(3), 1.0)

    def test_variant_payload_validation(self):
        spec = SystemSpec(5, 5.0, 2.0)
        f = generate_f(spec, 6)
        with pytest.raises(ValueError):
            Factorization(spec, f, np.zeros(4), None)
        with pytest.raises(ValueError):
            Factorization(spec, f, np.zeros(4), 1.0, variant=TRIDIAGONAL)
        with pytest.raises(ValueError):
            Factorization(spec, f, np.empty(0), 1.0, variant=TRIDIAGONAL)
        with pytest.raises(ValueError):
            Factorization(spec, f, np.zeros(4), 1.0, variant="banded")

    # f_1, f_3 and f_{n+1} at n = 5: the solve divides by f_3, and
    # apply_k_inverse, reconstruct and the tridiagonal inverse by f_{n+1}.
    @pytest.mark.parametrize("i", [1, 3, 6])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_copied_zero_pivot_is_refused(self, variant, i):
        built = _five(variant)
        f = built.f.copy()
        f[i] = 0.0
        with pytest.raises(ZeroPivotError, match=f"f_{i} = 0") as info:
            Factorization(built.spec, f, built.r, built.g, variant)
        assert info.value.index == i

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kept_read_only_array_is_checked_too(self, variant):
        built = _five(variant)
        f = built.f.copy()
        f[3] = 0.0
        f.flags.writeable = False
        with pytest.raises(ZeroPivotError, match="f_3 = 0"):
            Factorization(built.spec, f, built.r, built.g, variant)

    @pytest.mark.parametrize("variant, field, i, value", [
        *[(v, "f", i, x) for v in VARIANTS for i, x in ((2, np.nan), (0, np.inf), (6, -np.inf))],
        (CIRCULANT, "r", 1, np.nan), (CIRCULANT, "g", None, np.nan),
        (CIRCULANT, "g", None, np.inf),
    ])
    def test_copied_non_finite_value_is_refused(self, variant, field, i, value):
        built = _five(variant)
        parts = {"f": built.f.copy(), "r": built.r.copy(), "g": built.g}
        if field == "g":
            parts["g"] = value
        else:
            parts[field][i] = value
        with pytest.raises(GrowthOverflowError, match="not finite"):
            Factorization(built.spec, variant=variant, **parts)

    @pytest.mark.parametrize("build", [decompose, decompose_tridiagonal])
    def test_decompose_handoff_is_not_scanned(self, monkeypatch, build):
        spec = SystemSpec(64, 2.05, 1.0)
        before = build(spec)

        def scanned(*args):
            raise AssertionError("decompose's own arrays were scanned again")

        monkeypatch.setattr(factors, "_check_values", scanned)
        after = build(spec)
        assert after.f.tobytes() == before.f.tobytes()
        assert after.r.tobytes() == before.r.tobytes()
        assert after.g == before.g
        with pytest.raises(AssertionError):
            Factorization(spec, before.f.copy(), before.r, before.g, before.variant)


class TestFastActions:
    @pytest.mark.parametrize("fct", _cases(), ids=lambda c: f"n{c.n}d{c.spec.d}")
    def test_apply_k_matches_dense(self, fct):
        rng = np.random.default_rng(202)
        x = rng.standard_normal(fct.n)
        dense = materialize(fct, "K") @ x
        assert_allclose(apply_k(fct, x), dense, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("fct", _cases(), ids=lambda c: f"n{c.n}d{c.spec.d}")
    def test_apply_k_inverse_round_trip(self, fct):
        rng = np.random.default_rng(303)
        x = rng.standard_normal(fct.n)
        back = apply_k_inverse(fct, apply_k(fct, x))
        assert_allclose(back, x, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("fct", _cases(), ids=lambda c: f"n{c.n}d{c.spec.d}")
    def test_apply_r_matches_dense_and_round_trips(self, fct):
        rng = np.random.default_rng(404)
        x = rng.standard_normal(fct.n)
        # The corner row coefficients can reach ~f_n / f_2, so add-then-
        # subtract cancellation scales with that intermediate, not with x.
        intermediate = abs(float(fct.r @ x[:-1]))
        tol = 1e-13 * max(1.0, intermediate)
        assert np.abs(apply_r(fct, x) - materialize(fct, "R") @ x).max() <= tol
        back = apply_r_inverse(fct, apply_r(fct, x))
        assert np.abs(back - x).max() <= tol

    def test_r_actions_reject_tridiagonal(self, trid5):
        x = np.ones(5)
        with pytest.raises(VariantMismatchError):
            apply_r(trid5, x)
        with pytest.raises(VariantMismatchError):
            apply_r_inverse(trid5, x)
        with pytest.raises(VariantMismatchError):
            materialize(trid5, "R")
        with pytest.raises(VariantMismatchError):
            a1_inverse_last_row(trid5)

    @pytest.mark.parametrize("action", [apply_k, apply_k_inverse, apply_r, apply_r_inverse])
    def test_non_finite_result_is_refused(self, action):
        # K x and R x reach 1e300 f_154 and 1e300 r_1 = 1e300 f_154 / f_2 at
        # d = 100; K^-1 y divides +-2e300 by f_7, about 1e-13, at
        # d = -2 cos(pi/7 + 1e-13).
        if action is apply_k_inverse:
            spec = SystemSpec(23, -2.0 * np.cos(np.pi / 7 + 1e-13), 1.0, strict=False)
            x = 1e300 * (-1.0) ** np.arange(23)
        else:
            spec = SystemSpec(154, 100.0, 1.0)
            x = np.full(154, 1e300)
        fct = decompose(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GrowthOverflowError, match="left the 64-bit range"):
                action(fct, x)
            x[:] = 1.0
            x[3] = np.nan
            with pytest.raises(GrowthOverflowError, match="is not finite"):
                action(fct, x)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("d", [2.05, -2.5, 1.3, -0.7])
    def test_apply_k_inverse_is_the_first_difference(self, variant, d):
        # x_1 = y_1 / f_1 and x_i = (y_i - y_{i-1}) / f_i, byte for byte,
        # on strict (|d| > 2) and permissive factorizations.
        make = decompose if variant == CIRCULANT else decompose_tridiagonal
        fct = make(SystemSpec(16, d, 1.0, strict=abs(d) > 2.0))
        f = fct.f
        y = np.random.default_rng(505).standard_normal(16)
        expected = [y[0] / f[1]] + [(y[i] - y[i - 1]) / f[i + 1] for i in range(1, 16)]
        assert apply_k_inverse(fct, y).tobytes() == np.array(expected).tobytes()

    def test_vector_length_checked(self, fct5):
        for action in (apply_k, apply_k_inverse, apply_r, apply_r_inverse):
            with pytest.raises(DimensionMismatchError):
                action(fct5, np.ones(4))
            with pytest.raises(DimensionMismatchError):
                action(fct5, np.ones((5, 1)))


class TestDenseForms:
    def test_scaled_a1_reference_matrix(self, fct5):
        expected = np.array(
            [
                [5.0, 0.0, 0.0, 0.0, 0.0],
                [2.0, -10.5, 0.0, 0.0, 0.0],
                [0.0, -5.0, 21.25, 0.0, 0.0],
                [0.0, 0.0, 10.5, -42.625, 0.0],
                [2.0, 2.0, 2.0, -19.25, 68.0625],
            ]
        )
        assert_array_equal(2.0 * materialize(fct5, "A1"), expected)

    def test_a1_inverse_reference_entry(self, fct5):
        # (2, 1) entry: -f_1 / (f_2 f_3) = 1 / 13.125.
        inv = materialize(fct5, "A1_inv")
        assert inv[1, 0] == pytest.approx(0.0761904761904762, rel=1e-14)
        assert np.count_nonzero(np.triu(inv, 1)) == 0

    def test_k_structure(self, fct5):
        k = materialize(fct5, "K")
        f = fct5.f
        for i in range(5):
            for j in range(5):
                assert k[i, j] == (f[j + 1] if j <= i else 0.0)

    def test_tridiagonal_a1_is_bidiagonal(self, trid5):
        a1 = materialize(trid5, "A1")
        f = trid5.f
        assert_array_equal(np.diag(a1), -f[2:7])
        assert_array_equal(np.diag(a1, -1), f[1:5])
        assert np.count_nonzero(a1) == 9

    @pytest.mark.parametrize("variant", [CIRCULANT, TRIDIAGONAL])
    @pytest.mark.parametrize("name", ["K", "A1"])
    def test_factor_inverse_products(self, variant, name):
        for fct in _cases(variant):
            dense = materialize(fct, name)
            inv = materialize(fct, name + "_inv")
            identity = np.eye(fct.n)
            err = np.abs(dense @ inv - identity).max()
            assert err <= 1e-10, f"{name} n={fct.n} d={fct.spec.d}: {err}"

    def test_r_inverse_product(self):
        for fct in _cases():
            prod = materialize(fct, "R") @ materialize(fct, "R_inv")
            assert_allclose(prod, np.eye(fct.n), rtol=0, atol=1e-12)

    def test_last_row_solves_transposed_unit_system(self, fct5):
        m = a1_inverse_last_row(fct5)
        e_last = np.zeros(5)
        e_last[-1] = 1.0
        assert_allclose(m @ materialize(fct5, "A1"), e_last, rtol=0, atol=1e-14)

    def test_minimal_order_products(self):
        fct = decompose(SystemSpec(3, -7.0, 3.0))
        for name in ("K", "R", "A1"):
            prod = materialize(fct, name) @ materialize(fct, name + "_inv")
            assert_allclose(prod, np.eye(3), rtol=0, atol=1e-12)

    def test_unknown_selector(self, fct5):
        with pytest.raises(ValueError):
            materialize(fct5, "Q")
        assert set(FACTOR_NAMES) == {"K", "K_inv", "R", "R_inv", "A1", "A1_inv"}

    def test_size_guard(self):
        n = 10_001
        spec = SystemSpec(n, 5.0, 2.0)
        fake = Factorization(spec, np.ones(n + 2), np.ones(n - 1), 1.0)
        with pytest.raises(SizeGuardError):
            materialize(fake, "K")


def _exact_closure_row(n, d):
    """Last row of A1^-1 by rational back substitution of A1^T m = e_n.

    Independent of the closed form: f and the sum form of g are rebuilt in
    exact arithmetic from the float ratio d.
    """
    d = Fraction(d)
    f = [Fraction(0), Fraction(1)]
    for _ in range(n):
        f.append(-d * f[-1] - f[-2])
    r = [f[n] / (f[j] * f[j + 1]) for j in range(1, n)]
    g = 1 - f[n + 1] + sum(r) + r[-1] * f[n - 1]
    # Column j of A1 is -f_{j+1} on the diagonal, f_j below it (f_{n-1} + 1
    # in the last row for j = n - 1) and 1 in the last row before that.
    m = [Fraction(0)] * n
    m[-1] = 1 / g
    m[-2] = m[-1] * (f[n - 1] + 1) / f[n]
    for j in range(n - 3, -1, -1):
        m[j] = (m[j + 1] * f[j + 1] + m[-1]) / f[j + 2]
    return np.array([float(v) for v in m])


class TestClosureRow:
    @pytest.mark.parametrize("n", IDENTITY_N)
    @pytest.mark.parametrize("d", GRID_D)
    def test_matches_rational_back_substitution(self, n, d):
        m = a1_inverse_last_row(decompose(SystemSpec(n, d, 1.0)))
        exact = _exact_closure_row(n, d)
        scale = np.abs(exact).max()
        assert np.abs(m - exact).max() <= 64 * np.finfo(float).eps * scale

    @pytest.mark.parametrize(
        "n, d, a",
        [
            (154, 100.0, 1.0),
            (1023, 2.5, 1e-200),
            (70518, 2.0001, 3e150),
            (70518, -2.0001, 3e150),
        ],
    )
    def test_stays_finite_and_solves_at_the_edge_of_the_range(self, n, d, a):
        # |f_{n+1}| is near the largest double.  m is column n of A^-1
        # times a / f_n, so the stencil m_{i-1} + d m_i + m_{i+1} (cyclic)
        # must give e_n / f_n.
        fct = decompose(SystemSpec(n, d * a, a))
        m = a1_inverse_last_row(fct)
        assert np.isfinite(m).all()
        residual = np.roll(m, 1) + d * m + np.roll(m, -1)
        residual[-1] -= 1.0 / fct.f[n]
        bound = 16 * np.finfo(float).eps * (abs(d) + 2.0) * np.abs(m).max()
        assert np.abs(residual).max() <= bound


@pytest.mark.parametrize(
    "variant, name",
    [(v, name) for v in (CIRCULANT, TRIDIAGONAL) for name in FACTOR_NAMES
     if v == CIRCULANT or not name.startswith("R")],  # tridiagonal R = I
)
def test_every_factor_peaks_at_one_buffer(variant, name):
    # Each dense factor is written into its n x n result and nothing of
    # that size besides: no mask, broadcast copy or index grid.
    n = 512
    make = decompose if variant == CIRCULANT else decompose_tridiagonal
    fct = make(SystemSpec(n, 2.05, 1.0))
    assert peak_doubles(materialize, fct, name) <= 1.05 * n * n
