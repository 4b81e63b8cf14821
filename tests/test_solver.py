import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    growth_ratio,
    solve,
    solve_many,
)
from circkr.factors import a1_inverse_last_row, apply_k, apply_r

from grids import GRID_A, GRID_D, grid_cases, infinity_norm

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


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_solve_many_accepts_any_block_layout(layout):
    fct = decompose(SystemSpec(33, -5.0, 2.0))
    rng = np.random.default_rng(33)
    if layout == "fortran":
        block = np.asfortranarray(rng.standard_normal((33, 4)))
    else:
        block = rng.standard_normal((33, 12))[:, ::3]
    got = solve_many(fct, block)
    for j in range(4):
        assert np.array_equal(got[:, j], solve(fct, block[:, j]))


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
    with pytest.raises(DimensionMismatchError, match="right-hand side must be a vector"):
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

    def test_factor_actions_count_their_share_of_the_solve(self):
        # The solve is the K pass, the R pass and the A1^T back substitution;
        # the public actions run the same passes and count the same work.
        fct = decompose(SystemSpec(64, 5.0, 2.0))
        b = np.ones(64)
        with count_operations() as k_and_r:
            apply_r(fct, apply_k(fct, b))
        with count_operations() as back:
            a1_inverse_last_row(fct)
        with count_operations() as whole:
            solve(fct, b)
        assert k_and_r.total > 0
        assert whole.total == k_and_r.total + back.total

    def test_counter_ignores_other_threads(self):
        fct = decompose(SystemSpec(2048, 2.0002, 1.0))
        b = np.ones(2048)
        with count_operations() as alone:
            solve(fct, b)
        stop = threading.Event()
        finished = []

        def background():
            while not stop.is_set():
                solve(fct, b)
                finished.append(None)

        worker = threading.Thread(target=background)
        worker.start()
        try:
            with count_operations() as counter:
                solve(fct, b)
                # Hold the scope open while the other thread completes a solve.
                seen = len(finished)
                deadline = time.monotonic() + 30.0
                while len(finished) < seen + 2 and time.monotonic() < deadline:
                    time.sleep(0.001)
        finally:
            stop.set()
            worker.join()
        assert len(finished) >= seen + 2
        assert counter.total == alone.total


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


def _factorize(spec, circulant):
    return decompose(spec) if circulant else decompose_tridiagonal(spec)


def _backward_error(spec, x, b, circulant):
    """Normwise backward error of x for A x = b, per column, from the stencil."""
    left, right = np.roll(x, 1, axis=0), np.roll(x, -1, axis=0)
    if not circulant:
        left[0] = right[-1] = 0.0
    residual = spec.c * x + spec.a * (left + right) - b
    norm_a = abs(spec.c) + 2.0 * abs(spec.a)
    scale = norm_a * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
    return np.abs(residual).max(axis=0) / scale


def _max_safe_n(d):
    try:
        decompose(SystemSpec(10**6, d, 1.0))
    except GrowthOverflowError as err:
        return err.max_safe_n
    raise AssertionError(f"the recurrence does not overflow at d = {d}")


VARIANT_IDS = ["circulant", "tridiagonal"]


@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
@pytest.mark.parametrize("many", [False, True], ids=["solve", "solve_many"])
def test_solution_beyond_the_64_bit_range_raises(circulant, many):
    # Every input is finite and cond(A) is about 9, but x is about
    # b / (c + 2a) = 1e300 / 4.5e-300, which no double holds.
    spec = SystemSpec(64, 2.5e-300, 1e-300)
    fct = _factorize(spec, circulant)
    b = np.full(64, 1e300)
    with pytest.raises(GrowthOverflowError, match="back substitution left the 64-bit"):
        if many:
            solve_many(fct, b[:, None])
        else:
            solve(fct, b)


@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
@pytest.mark.parametrize(
    "spec",
    [SystemSpec(154, 1e-198, 1e-200), SystemSpec(3174, 2.05e-300, 1e-300)],
    ids=["d100-n154-a1e-200", "d2.05-n3174-a1e-300"],
)
def test_tiny_off_diagonal_does_not_overflow(spec, circulant):
    # cond(A) is about 1.05, but |f_n| is within a few decades of the
    # 64-bit limit, so dividing b by a tiny a before the prefix sum would
    # push f * b / a out of range.
    b = np.random.default_rng(11).standard_normal(spec.n)
    x = solve(_factorize(spec, circulant), b)
    assert _backward_error(spec, x, b, circulant) <= 1e-14


@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
@pytest.mark.parametrize(
    "n, c, a",
    [
        (154, 1e202, 1e200),
        (65536, 2.0001e150, -1e150),
        (3, 1e100, 1.0),
        (4, 1e70, 1.0),
        (153, 100.0, 1.0),
        (154, 100.0, 1.0),
        (153, -100.0, 1.0),
        (154, -100.0, 1.0),
        (None, -2.0001, 1.0),
    ],
    ids=lambda v: "max-safe-n" if v is None else repr(v),
)
def test_closed_form_keeps_precision_at_range_edges(n, c, a, circulant):
    # Here |f_i| nears the largest double.  b_k takes the sign of f_k, so the
    # prefix sums of f_k b_k do not cancel and reach about |f_n| / (1 - 1/rho);
    # they, u_i = x_i / f_i and the terms (x_n - y_k) / (f_k f_{k+1}) stay in
    # the normal range only because the solve works on a rescaled f.
    spec = SystemSpec(n or _max_safe_n(c / a), c, a)
    fct = _factorize(spec, circulant)
    rng = np.random.default_rng(12)
    b = np.sign(fct.f[1 : spec.n + 1]) * rng.uniform(0.5, 1.0, spec.n)
    x = solve(fct, b)
    assert _backward_error(spec, x, b, circulant) <= 1e-14


def test_block_counts_each_column():
    fct = decompose(SystemSpec(64, 5.0, 2.0))
    block = np.ones((64, 3))
    with count_operations() as one:
        solve(fct, block[:, 0])
    with count_operations() as three:
        solve_many(fct, block)
    assert three.total == 3 * one.total


@st.composite
def _systems(draw):
    d = draw(st.sampled_from([-1.0, 1.0])) * (2.0 + 10.0 ** draw(st.floats(-3.0, 2.0)))
    # Keep |f_{n+1}| finite: it grows like growth_ratio(d) ** n.
    limit = int(1020 * math.log(2.0) / math.log(growth_ratio(d))) - 2
    n = min(draw(st.integers(3, 4096)), limit)
    a = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-200.0, 200.0))
    spec = SystemSpec(n, d * a, a)
    k = draw(st.integers(1, 4))
    block = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, k))
    return spec, draw(st.booleans()), block


@settings(max_examples=60, deadline=None)
@given(_systems())
def test_block_solve_is_backward_stable_and_matches_columns(system):
    spec, circulant, block = system
    fct = _factorize(spec, circulant)
    x = solve_many(fct, block)
    assert (_backward_error(spec, x, block, circulant) <= 1e-13).all()
    for j in range(block.shape[1]):
        assert np.array_equal(x[:, j], solve(fct, block[:, j]))


def _reference_solve(fct, b):
    """The per-element back-substitution loop that the closed form replaced."""
    n, f = fct.n, fct.f
    y = np.cumsum(f[1 : n + 1] * (b / fct.spec.a))
    x = np.empty(n)
    if fct.g is not None:
        y[n - 1] += fct.r @ y[: n - 1]
        x_n = x[n - 1] = y[n - 1] / fct.g
        x[n - 2] = (y[n - 2] - (f[n - 1] + 1.0) * x_n) / (-f[n])
        for i in range(n - 3, -1, -1):
            x[i] = (y[i] - f[i + 1] * x[i + 1] - x_n) / (-f[i + 2])
    else:
        x[n - 1] = y[n - 1] / (-f[n + 1])
        for i in range(n - 2, -1, -1):
            x[i] = (y[i] - f[i + 1] * x[i + 1]) / (-f[i + 2])
    return x


@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
def test_closed_form_matches_reference_loop(circulant):
    # Both evaluate the same recurrence in a different order; 64 eps of the
    # solution's scale bounds the difference on the whole stress grid.
    for index, (n, d, a) in enumerate(grid_cases()):
        fct = _factorize(SystemSpec(n, d * a, a), circulant)
        b = np.random.default_rng(700 + index).standard_normal(n)
        expected = _reference_solve(fct, b)
        tol = 64 * np.finfo(float).eps * np.abs(expected).max()
        assert np.abs(solve(fct, b) - expected).max() <= tol, (n, d, a)
