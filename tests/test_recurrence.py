import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from circkr import (
    DimensionMismatchError,
    GrowthOverflowError,
    InconsistencyError,
    InvalidSpecError,
    SingularPivotError,
    SystemSpec,
    ZeroPivotError,
    compute_g,
    generate_f,
    generate_r,
    growth_ratio,
)

REFERENCE_F = np.array([0.0, 1.0, -2.5, 5.25, -10.625, 21.3125, -42.65625])


def _one_step_generate_f(d, m):
    """Reference: the plain loop that checks every step and stores each value."""
    out = np.empty(m + 1)
    out[0] = 0.0
    out[1] = 1.0
    prev = 0.0
    cur = 1.0
    for i in range(1, m):
        nxt = -d * cur - prev  # float arithmetic overflows to inf or nan
        if not math.isfinite(nxt):
            raise GrowthOverflowError(
                f"f_{i + 1} exceeds the 64-bit range for d = {d} "
                f"(growth ratio {growth_ratio(d):.6g} per step); "
                f"the largest finite index is {i}",
                failing_index=i + 1,
                growth_ratio=growth_ratio(d),
                max_safe_m=i,
            )
        if nxt == 0.0:
            raise ZeroPivotError(
                f"f_{i + 1} = 0 for d = {d}; the factorization needs every "
                f"f_i with i >= 1 as a nonzero pivot",
                index=i + 1,
            )
        out[i + 1] = nxt
        prev, cur = cur, nxt
    return out


def _outcome(generate, d, m):
    # The bytes of the result, or everything an error carries.
    try:
        return generate(d, m).tobytes()
    except (GrowthOverflowError, ZeroPivotError) as err:
        return type(err), str(err), vars(err)


def _exact_f(d, m):
    """f_0 .. f_m of the exact recurrence, each rounded once to a double.

    d is p / 2**k exactly, so f_i 2**256 runs in integers; each step
    truncates below 2**-256, which leaves every value exact to far below
    one ulp of max_{j<=i} |f_j| (m <= 10**5).  A value past the 64-bit
    range reads as inf.
    """
    p, q = Fraction(d).as_integer_ratio()
    shift, one = q.bit_length() - 1, 1 << 256
    out = np.empty(m + 1)
    prev, cur = 0, one
    out[0] = 0.0
    for i in range(1, m + 1):
        try:
            out[i] = cur / one  # int / int rounds once, correctly
        except OverflowError:
            out[i] = math.copysign(math.inf, cur)
        prev, cur = cur, -((p * cur) >> shift) - prev
    return out


# Past f_513 each block of 512 values is formed by the addition formula,
# not step by step, so those values are held to the exact recurrence.  The
# worst error relative to max_{j<=i} |f_j| found was 3.3e5 eps, at
# d = -2.000000000041 and m = 3000, over 3000 draws of d near +-2 and over
# the hypothesis ranges below with m = 514 .. 3000, and 600 more at
# |d| - 2 = 1e-12 .. 1e-9; the literal loop reached 6.9e5 eps on the same
# draws.  The bound, 2**20 eps, leaves a factor of three.
BLOCK_F_BOUND = 2.0**20 * np.finfo(float).eps


def _assert_matches_one_step_loop(d, m):
    """generate_f against the one-step loop: the same bytes through f_513,
    the same error (type, index, message) at every m, and past f_513
    values within BLOCK_F_BOUND of the exact recurrence."""
    expected = _outcome(_one_step_generate_f, d, m)
    got = _outcome(generate_f, d, m)
    if m <= 513 or not isinstance(expected, bytes):
        assert got == expected
        return
    assert isinstance(got, bytes), got
    assert got[: 514 * 8] == expected[: 514 * 8]
    exact = _exact_f(d, m)
    scale = np.maximum.accumulate(np.abs(exact))
    assert (np.abs(np.frombuffer(got) - exact) <= BLOCK_F_BOUND * scale).all()


class TestSystemSpec:
    def test_valid_spec_normalizes_types(self):
        spec = SystemSpec(5, 5, 2)
        assert spec.n == 5 and isinstance(spec.c, float) and isinstance(spec.a, float)
        assert spec.d == 2.5

    def test_rejects_small_order(self):
        with pytest.raises(InvalidSpecError):
            SystemSpec(2, 10.0, 1.0)

    def test_rejects_zero_off_diagonal(self):
        with pytest.raises(InvalidSpecError):
            SystemSpec(5, 10.0, 0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidSpecError):
            SystemSpec(5, math.nan, 1.0)
        with pytest.raises(InvalidSpecError):
            SystemSpec(5, 10.0, math.inf)

    def test_rejects_dominance_boundary(self):
        # |c| must be strictly greater than 2|a|.
        with pytest.raises(InvalidSpecError):
            SystemSpec(4, 4.0, 2.0)
        with pytest.raises(InvalidSpecError):
            SystemSpec(4, -4.0, 2.0)

    def test_permissive_relaxes_only_dominance(self):
        spec = SystemSpec(5, 1.5, 1.0, strict=False)
        assert spec.d == 1.5
        with pytest.raises(InvalidSpecError):
            SystemSpec(2, 1.5, 1.0, strict=False)
        with pytest.raises(InvalidSpecError):
            SystemSpec(5, 1.5, 0.0, strict=False)

    def test_immutable(self):
        spec = SystemSpec(5, 5.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.c = 7.0


class TestGenerateF:
    def test_reference_values_exact(self):
        assert_array_equal(generate_f(2.5, 6), REFERENCE_F)

    def test_minimal_length(self):
        assert_array_equal(generate_f(5.0, 1), [0.0, 1.0])

    def test_negative_ratio(self):
        assert_array_equal(generate_f(-3.0, 3), [0.0, 1.0, 3.0, 8.0])

    def test_accepts_spec_or_ratio(self):
        spec = SystemSpec(5, 5.0, 2.0)
        assert_array_equal(generate_f(spec, 6), generate_f(2.5, 6))

    def test_deterministic_bit_identical(self):
        first = generate_f(2.05, 300)
        second = generate_f(2.05, 300)
        assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("d", [2.05, -2.05, 2.5, -3.7, 5.0, -47.25, 100.0])
    def test_three_term_relation_reconstructible(self, d):
        f = generate_f(d, 120 if abs(d) < 10 else 40)
        lhs = f[2:]
        rhs = -d * f[1:-1] - f[:-2]
        scale = np.maximum(np.abs(lhs), 1.0)
        assert (np.abs(lhs - rhs) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("d", [2.05, -2.05, 3.0, -3.0, 9.5, 100.0])
    def test_growth_bound(self, d):
        f = generate_f(d, 100 if abs(d) < 10 else 40)
        bound = (abs(d) - 1.0) * (1.0 - 1e-12)
        assert (np.abs(f[2:]) >= bound * np.abs(f[1:-1])).all()

    @pytest.mark.parametrize("d", [2.05, 2.5, 3.0, 47.5])
    def test_sign_alternation_above_two(self, d):
        f = generate_f(d, 60)
        signs = np.sign(f[1:])
        expected = np.array([(-1.0) ** i for i in range(len(f) - 1)])
        assert_array_equal(signs, expected)

    @pytest.mark.parametrize("d", [-2.05, -2.5, -100.0])
    def test_all_positive_below_minus_two(self, d):
        f = generate_f(d, 60)
        assert (f[1:] > 0).all()

    def test_overflow_is_structured(self):
        with pytest.raises(GrowthOverflowError) as excinfo:
            generate_f(2.5, 2000)
        err = excinfo.value
        assert err.failing_index == 1025
        assert err.max_safe_m == 1024
        assert err.growth_ratio == pytest.approx(2.0)
        assert "1024" in str(err)

    def test_overflow_boundary_is_tight(self):
        # The largest finite index must actually be generable.
        f = generate_f(2.5, 1024)
        assert np.isfinite(f).all()
        with pytest.raises(GrowthOverflowError):
            generate_f(2.5, 1025)

    def test_overflow_index_matches_plain_iteration(self):
        # Independent oracle: iterate bare floats until non-finite.
        d, prev, cur, i = 2.5, 0.0, 1.0, 1
        while math.isfinite(cur):
            prev, cur = cur, -d * cur - prev
            i += 1
        with pytest.raises(GrowthOverflowError) as excinfo:
            generate_f(2.5, i + 10)
        assert excinfo.value.failing_index == i

    @pytest.mark.parametrize("d, index", [(0.0, 2), (1.0, 3)])
    def test_zero_pivot_permissive_ratios(self, d, index):
        with pytest.raises(ZeroPivotError) as excinfo:
            generate_f(d, 10)
        assert excinfo.value.index == index

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidSpecError):
            generate_f(2.5, 0)
        with pytest.raises(InvalidSpecError):
            generate_f(math.nan, 5)

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.one_of(
            st.floats(2.0, 100.0, exclude_min=True),
            st.floats(-100.0, -2.0, exclude_max=True),
            st.floats(-2.0, 2.0),
        ),
        m=st.integers(1, 3000),
    )
    def test_matches_one_step_loop_bit_for_bit(self, d, m):
        _assert_matches_one_step_loop(d, m)

    @pytest.mark.parametrize(
        "d, m",
        [(0.0, 40), (1.0, 40), (2.0, 40), (-2.0, 40), (2.5, 1024),
         (-2.0001, 70519), (-2.0001, 70520)],
    )
    def test_pinned_cases_match_one_step_loop(self, d, m):
        _assert_matches_one_step_loop(d, m)

    @pytest.mark.parametrize(
        "d, m, failing_index",
        # Finiteness is checked once per chunk of 512 steps, f_2 .. f_513
        # being the first.  +-4.25 first overflows at its last value, 4.24
        # at the first value of the next chunk; 2.5 with m = 1025 overflows
        # at the very last value generated.
        [(4.25, 600, 513), (-4.25, 513, 513), (4.24, 600, 514), (2.5, 1025, 1025)],
    )
    def test_overflow_on_a_chunk_boundary(self, d, m, failing_index):
        expected = _outcome(_one_step_generate_f, d, m)
        assert expected[2]["failing_index"] == failing_index
        assert _outcome(generate_f, d, m) == expected

    @pytest.mark.parametrize("m", [511, 512, 513, 1023, 1024, 1025])
    @pytest.mark.parametrize(
        "d", [2.0001, -2.0001, 2.5, -2.5, 4.25, 4.24, 0.0, 1.0, -1.0, 1.9999999]
    )
    def test_chunk_seams_match_one_step_loop(self, d, m):
        # A block that started one value early or late would shift
        # everything after it, far past the bound.
        _assert_matches_one_step_loop(d, m)

    @pytest.mark.parametrize(
        "d, m, failing_index",
        # 2.5: f_1024 is the last finite value, in block 1 (f_514 .. f_1025),
        # and 2.5 f_1024 overflows, so the literal step finishes that block.
        # 4.24: f_514, the first value after the base block, overflows.
        # -2.0001: f_70520 is the first value past max_safe_n + 1.
        # -2.00009972: d f_70617 overflows though f_70657, the end of its
        # block, is finite: a block is cleared by d f_i, not by f_i, or the
        # next block would report the overflow.
        [(2.5, 1024, None), (2.5, 1025, 1025), (4.24, 600, 514), (-2.0001, 70520, 70520),
         (-2.00009972, 70700, 70618)],
    )
    def test_block_seams_match_one_step_loop(self, d, m, failing_index):
        if failing_index is not None:
            with pytest.raises(GrowthOverflowError) as excinfo:
                generate_f(d, m)
            assert excinfo.value.failing_index == failing_index
        _assert_matches_one_step_loop(d, m)

    @pytest.mark.parametrize("d, index", [(0.0, 2), (1.0, 3)])
    def test_zero_pivot_stops_early(self, d, index):
        # The zero sits in the first chunk, so a huge order costs no more
        # than a small one.
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(ZeroPivotError) as excinfo:
                generate_f(d, 10**6)
            best = min(best, time.perf_counter() - start)
            assert excinfo.value.index == index
        assert best < 0.010

    def test_growth_ratio_helper(self):
        assert growth_ratio(2.5) == 2.0
        assert growth_ratio(-2.5) == 2.0
        assert growth_ratio(100.0) == pytest.approx((100 + math.sqrt(9996)) / 2)


class TestGenerateR:
    def test_reference_values(self):
        r = generate_r(REFERENCE_F, 5)
        assert_allclose(
            r,
            [21.3125 / -2.5, 21.3125 / (5.25 * -2.5),
             21.3125 / (-10.625 * 5.25), 21.3125 / (21.3125 * -10.625)],
            rtol=1e-15,
        )
        # Four-decimal published form of the same numbers.
        assert_allclose(r, [-8.525, -1.6238, -0.3821, -0.0941], atol=5e-5)

    def test_small_negative_ratio(self):
        f = generate_f(-3.0, 4)
        assert_allclose(generate_r(f, 3), [8.0 / 3.0, 1.0 / 3.0], rtol=1e-15)

    @pytest.mark.parametrize("d", [2.05, -2.5, 7.3, -100.0])
    @pytest.mark.parametrize("n", [3, 4, 9, 64])
    def test_closure_identity(self, d, n):
        f = generate_f(d, n + 1)
        r = generate_r(f, n)
        assert abs(r[-1] * f[n - 1] - 1.0) <= 1e-12

    def test_hand_built_first_pivot_scales_r(self):
        # A generated f has f_1 = 1, and r skips its multiply by f_1; a
        # hand-built f_1 = 2 must still scale r_j = f_n f_1 / (f_{j+1} f_j).
        f = REFERENCE_F.copy()
        f[1] = 2.0
        expected = [f[5] * 2.0 / (f[j + 1] * f[j]) for j in range(1, 5)]
        assert_allclose(generate_r(f, 5), expected, rtol=1e-15)

    def test_requires_enough_values(self):
        with pytest.raises(DimensionMismatchError):
            generate_r(generate_f(2.5, 4), 5)
        with pytest.raises(InvalidSpecError):
            generate_r(REFERENCE_F, 2)

    def test_no_intermediate_overflow_near_range_limit(self):
        # f_n close to the top of the 64-bit range: the denominator product
        # f_{j+1} f_j would overflow if formed directly.
        f = generate_f(2.5, 1020)
        r = generate_r(f, 1019)
        assert np.isfinite(r).all()
        assert abs(r[-1] * f[1018] - 1.0) <= 1e-12

    def test_zero_pivot_is_structured(self):
        # A hand-built f: generate_f itself never returns a zero pivot.
        f = np.array([0.0, 1.0, -2.5, 0.0, 4.0, 1.0])
        with pytest.raises(ZeroPivotError, match="f_3 = 0") as err:
            generate_r(f, 5)
        assert err.value.index == 3

    def test_tiny_permissive_pivot_overflows_without_warning(self):
        # f_2 = -1e-310, so r_1 = f_5 / (f_2 f_1) leaves the range; pytest
        # turns a numpy warning ahead of the error into a failure.
        f = generate_f(1e-310, 6)
        with pytest.raises(GrowthOverflowError, match="r_1 exceeds") as err:
            generate_r(f, 5)
        assert err.value.failing_index == 1


class TestComputeG:
    def test_reference_value_exact(self):
        r = generate_r(REFERENCE_F, 5)
        g = compute_g(REFERENCE_F, r, 5)
        assert g == 34.03125
        assert 2.0 * g == 68.0625

    @pytest.mark.parametrize("d", [2.05, -2.05, 2.5, -4.2, 33.0])
    @pytest.mark.parametrize("n", [3, 5, 16, 64])
    def test_forms_agree_and_match_direct_evaluation(self, d, n):
        f = generate_f(d, n + 1)
        r = generate_r(f, n)
        g = compute_g(f, r, n)
        primary = 1.0 - f[n + 1] + r.sum() + r[n - 2] * f[n - 1]
        alternate = 1.0 + f[1] - f[n + 1] + (r * f[1]).sum()
        assert g == pytest.approx(primary, rel=1e-15)
        assert abs(primary - alternate) <= 1e-12 * max(abs(primary), abs(alternate))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12])
    def test_singular_at_minus_two(self, n):
        # d = -2 gives f_i = i, the coefficients telescope, and g vanishes
        # for every order: the circulant matrix has a zero eigenvalue.
        f = generate_f(-2.0, n + 1)
        assert_array_equal(f, np.arange(n + 2, dtype=float))
        r = generate_r(f, n)
        with pytest.raises(SingularPivotError):
            compute_g(f, r, n)

    def test_singular_at_plus_two_even_order(self):
        f = generate_f(2.0, 7)
        with pytest.raises(SingularPivotError):
            compute_g(f, generate_r(f, 6), 6)

    def test_nonsingular_at_plus_two_odd_order(self):
        f = generate_f(2.0, 6)
        g = compute_g(f, generate_r(f, 5), 5)
        assert g == pytest.approx(4.0, rel=1e-12)

    def test_inconsistency_near_dominance_boundary(self):
        # Just above |d| = 2 the closure scalar is a tiny difference of
        # larger sums; the two forms diverge in relative terms and the
        # disagreement must surface as a structured error.
        f = generate_f(-2.0 - 1e-12, 65)
        r = generate_r(f, 64)
        with pytest.raises(InconsistencyError):
            compute_g(f, r, 64)

    def test_alternate_form_scales_by_f1(self):
        # With f_1 = 2 the alternate form adds 2 sum r_j against the primary
        # form's sum r_j, so the two must disagree.
        f = 2.0 * REFERENCE_F
        with pytest.raises(InconsistencyError):
            compute_g(f, generate_r(f, 5), 5)

    @pytest.mark.parametrize("r", [(1e308, 1e308, 1.0, 1.0), (1e308, 1e308, -1e308, -1e308)])
    def test_non_finite_sum_is_structured(self, r):
        # A hand-built r whose sum leaves the range (or, summed in order,
        # meets inf - inf), with no numpy warning first.
        with pytest.raises(GrowthOverflowError, match="closure scalar left the 64-bit range"):
            compute_g(REFERENCE_F, np.array(r), 5)

    def test_requires_matching_shapes(self):
        r = generate_r(REFERENCE_F, 5)
        with pytest.raises(DimensionMismatchError):
            compute_g(REFERENCE_F[:6], r, 5)
        with pytest.raises(DimensionMismatchError):
            compute_g(REFERENCE_F, r[:2], 5)
