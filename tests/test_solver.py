import copy
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
    spectral_solve,
)
from circkr import solver
from circkr.factors import apply_k, apply_r

from grids import GRID_A, GRID_D, accuracy, grid_cases, infinity_norm, peak_doubles

SOLVE_N = (3, 4, 5, 8, 16, 64, 200)
VARIANT_IDS = ["circulant", "tridiagonal"]
# The memory bounds were measured on numpy 2.4: when a ufunc fills an
# iterator buffer differs between numpy versions.
NUMPY_2_4 = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "2.4.0",
    reason="iterator-buffer bounds measured on numpy 2.4",
)


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


@pytest.mark.parametrize("layout", ["C", "fortran", "strided", "read-only"])
def test_solve_many_leaves_its_block_unchanged(layout):
    # The kernel runs in place on its own copy; the caller's memory, whatever
    # its layout, is only read.
    fct = decompose(SystemSpec(33, -5.0, 2.0))
    source = np.random.default_rng(34).standard_normal((33, 12))
    if layout == "C":
        block = source[:, :4].copy()
        source = block
    elif layout == "fortran":
        block = source = np.asfortranarray(source[:, :4])
    elif layout == "strided":
        block = source[:, ::3]
    else:
        block = source = source[:, :4].copy()
        block.flags.writeable = False
    before = source.copy()
    got = solve_many(fct, block)
    assert np.array_equal(source, before)
    assert not np.shares_memory(got, source)


def test_solve_many_4096_fortran_block_matches_columns():
    # Fortran order makes each column contiguous; the copy into the rows of
    # the padded buffer still runs, and each column comes out bit for bit
    # as its own solve.
    fct = decompose(SystemSpec(4096, 2.0001, 1.0))
    block = np.asfortranarray(np.random.default_rng(4096).standard_normal((4096, 3)))
    got = solve_many(fct, block)
    for j in range(3):
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


@pytest.mark.parametrize("first, second", [(np.nan, np.inf), (np.inf, np.nan)])
def test_solve_many_names_the_lower_of_two_bad_columns(first, second):
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    block = np.ones((5, 4))
    block[3, 1] = first
    block[0, 3] = second
    with pytest.raises(GrowthOverflowError, match="column 2: right-hand side entry 4 "):
        solve_many(fct, block)


def test_solve_many_shape_check():
    fct = decompose(SystemSpec(5, 5.0, 2.0))
    with pytest.raises(DimensionMismatchError):
        solve_many(fct, np.ones(5))
    with pytest.raises(DimensionMismatchError):
        solve_many(fct, np.ones((4, 2)))


@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
@pytest.mark.parametrize(
    "spec",
    [
        SystemSpec(64, 5.0, 2.0),
        SystemSpec(61, -2.05, 1.0),
        SystemSpec(64, 1.3, 1.0, strict=False),
        SystemSpec(37, -0.4, 2.0, strict=False),
    ],
    ids=["strict", "strict-negative", "permissive", "permissive-negative"],
)
@pytest.mark.parametrize("padded", [True, False], ids=["padded", "unpadded"])
@pytest.mark.parametrize("k", [2, 7, 50])
def test_tiled_copy_matches_columns(monkeypatch, spec, circulant, k, padded):
    # A tile of 40 entries copies the block in row tiles of 40 // k rows,
    # or of one row once k > 40, with or without a pad column.
    fct = _factorize(spec, circulant)
    block = np.random.default_rng(k).standard_normal((spec.n, k))
    whole = solve_many(fct, block)
    monkeypatch.setattr(solver, "_TILE_ENTRIES", 40)
    monkeypatch.setattr(solver, "_PAD_ENTRIES", 0 if padded else 10**9)
    monkeypatch.setattr(solver, "_SHORT_ROW", 0)
    got = solve_many(fct, block)
    assert got.tobytes() == whole.tobytes()
    for j in range(k):
        assert got[:, j].tobytes() == solve(fct, block[:, j]).tobytes()


def test_tiled_copy_names_a_non_finite_column_in_a_later_tile(monkeypatch):
    fct = decompose(SystemSpec(32, 5.0, 2.0))
    block = np.ones((32, 6))
    block[20, 4] = np.inf
    monkeypatch.setattr(solver, "_TILE_ENTRIES", 40)
    with pytest.raises(
        GrowthOverflowError,
        match=r"^right-hand side column 5: right-hand side entry 21 is not finite \(inf\)$",
    ):
        solve_many(fct, block)


@NUMPY_2_4
@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
def test_solve_many_holds_no_iterator_buffer(circulant):
    # The padded (k, n + 1) buffer is the only block-sized allocation: no
    # pass makes numpy buffer f, the exponents or the block itself.  The
    # pad keeps the rows from merging; the passes that broadcast nothing run
    # on the whole padded buffer.  At (65536, 4) the block is copied in row
    # tiles.
    for n, k, d, bound in (
        (512, 3, 4.0, 3 * 513 + 512),
        (4096, 16, 2.0001, 1.02 * 16 * 4097),
        (65536, 4, 2.0001, 1.02 * 4 * 65537),
    ):
        spec = SystemSpec(n, d, 1.0)
        fct = _factorize(spec, circulant)
        block = np.random.default_rng(n).standard_normal((n, k))
        assert peak_doubles(solve_many, fct, block) <= bound, (n, k)


@NUMPY_2_4
def test_solve_many_keeps_four_short_rows_unpadded():
    # numpy buffers all three operands of a pass over four or more padded
    # rows of up to 2048 entries, for a peak of 4 k (n + 1) doubles here; on
    # the contiguous block it buffers only f.
    fct = decompose_tridiagonal(SystemSpec(2048, 2.0001, 1.0))
    block = np.random.default_rng(2048).standard_normal((2048, 4))
    solve_many(fct, block)
    assert peak_doubles(solve_many, fct, block) <= 2.1 * 4 * 2048


@NUMPY_2_4
@pytest.mark.parametrize("n, d", [(20000, -0.3), (40000, 1.999)])
def test_solve_many_one_column_matches_solve_at_any_order(n, d):
    # circkr solve's path for a one-column file.  A permissive ratio keeps
    # every closure term, so a sum taken in chunks would round differently.
    fct = decompose(SystemSpec(n, d, 1.0, strict=False))
    b = np.random.default_rng(n).standard_normal(n)
    assert solve_many(fct, b[:, None])[:, 0].tobytes() == solve(fct, b).tobytes()


@NUMPY_2_4
@pytest.mark.parametrize("k", [2, 5])
def test_solve_many_columns_match_solve_at_one_einsum_chunk(k):
    # n = 8193 has 8192 closure terms, the most that numpy 2.4's einsum sums
    # in one run for each row of a block; at 8194 the columns differ.
    n = 8193
    fct = decompose(SystemSpec(n, -0.3, 1.0, strict=False))
    block = np.random.default_rng(k).standard_normal((n, k))
    got = solve_many(fct, block)
    for j in range(k):
        assert got[:, j].tobytes() == solve(fct, block[:, j]).tobytes(), j


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
    # A hand-built factorization with g = 0 never reaches a divide: the
    # constructor refuses it.
    spec = SystemSpec(5, 5.0, 2.0)
    good = decompose(spec)
    with pytest.raises(SingularPivotError, match="g = 0"):
        solve(Factorization(spec, good.f, good.r, 0.0), np.ones(5))


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
        # the public actions run the same K and R passes and count the same
        # work, and the back substitution counts its n-entry buffer once.
        fct = decompose(SystemSpec(64, 5.0, 2.0))
        b = np.ones(64)
        with count_operations() as k_and_r:
            apply_r(fct, apply_k(fct, b))
        with count_operations() as whole:
            solve(fct, b)
        assert k_and_r.total > 0
        assert whole.total == k_and_r.total + 64

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
@pytest.mark.parametrize("many", [False, True], ids=["solve", "solve_many"])
@pytest.mark.parametrize("hand_built", [False, True], ids=["decomposed", "hand-built"])
def test_tiny_permissive_pivot_raises_without_warning(circulant, many, hand_built):
    # f_2 = -c, so dividing by that pivot overflows in the middle of the
    # passes, while |f_7| = 1 leaves the final rescale in range; the solve
    # raises with no numpy warning ahead of the error.  The public
    # constructor takes such an f under a strict spec too.
    fct = _factorize(SystemSpec(6, 1e-310, 1.0, strict=False), circulant)
    if hand_built:
        fct = Factorization(SystemSpec(6, 2.5, 1.0), fct.f, fct.r, fct.g, fct.variant)
    b = np.ones((6, 3))
    with pytest.raises(GrowthOverflowError, match="back substitution left the 64-bit"):
        if many:
            solve_many(fct, b)
        else:
            solve(fct, b[:, 0])


@pytest.mark.xfail(
    raises=AssertionError,
    strict=True,
    reason="ROADMAP item 3: a permissive solve divides by its tiny pivots; "
    "the pivot-free solve is to bring it within 64 kappa eps",
)
@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
@pytest.mark.parametrize(
    "n, c",
    [
        (23, -2.0 * math.cos(math.pi / 7 + 1e-13)),
        (23, -2.0 * math.cos(math.pi / 7 + 1e-9)),
        (6, 1e-20),
    ],
    ids=["pi/7+1e-13", "pi/7+1e-9", "c=1e-20"],
)
def test_permissive_solve_is_as_accurate_as_the_condition_allows(n, c, circulant):
    # Well-conditioned systems (kappa 2 to 83) with a pivot f_i near zero:
    # the pivoted kernel's error is 1e-9 to 1e4, against bounds near 1e-12.
    spec = SystemSpec(n, c, 1.0, strict=False)
    variant = "circulant" if circulant else "tridiagonal"
    lam = np.abs(np.linalg.eigvalsh(build_dense(spec, variant)))
    kappa = lam.max() / lam.min()
    b = np.random.default_rng(0).standard_normal(n)
    expected = spectral_solve(spec, b, variant)
    x = solve(_factorize(spec, circulant), b)
    error = np.abs(x - expected).max() / np.abs(expected).max()
    assert error <= 64 * kappa * np.finfo(float).eps


@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
@pytest.mark.parametrize("spec", [SystemSpec(16, 2.05, 1.0), SystemSpec(64, -2.5e200, 1e200)])
def test_quiet_path_gives_the_bare_path_bytes(monkeypatch, spec, circulant):
    # A strict factorization solves bare.  A copy that claims a pivot below 1
    # runs the same passes under np.errstate, with the same bytes.
    fct = _factorize(spec, circulant)
    b = np.random.default_rng(808).standard_normal((spec.n, 3))
    entered = []
    errstate = np.errstate

    def counted(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    bare = solve(fct, b[:, 0]), solve_many(fct, b)
    assert entered == []
    quiet = copy.copy(fct)
    object.__setattr__(quiet, "_unit_pivots", False)
    assert solve(quiet, b[:, 0]).tobytes() == bare[0].tobytes()
    assert solve_many(quiet, b).tobytes() == bare[1].tobytes()
    assert entered == [{"over": "ignore", "invalid": "ignore"}] * 2


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


@pytest.mark.parametrize("circulant", [True, False], ids=VARIANT_IDS)
@pytest.mark.parametrize("n", [4095, 65535])
def test_block_generated_f_permissive_solve_within_64_kappa_eps(n, circulant):
    # Past f_513, generate_f forms f in blocks by the addition formula.  At
    # the permissive ratio d = -1.5 the closure scalar's two forms still
    # agree (no InconsistencyError), and the solve agrees with the spectral
    # one within 64 kappa eps.  The strict ratios at block-path orders are
    # the strict grid of tests/test_accuracy.py.
    spec = SystemSpec(n, -1.5, 1.0, strict=False)
    variant = "circulant" if circulant else "tridiagonal"
    fct = _factorize(spec, circulant)
    b = np.random.default_rng(31).standard_normal(n)
    expected = spectral_solve(spec, b, variant)
    error = np.abs(solve(fct, b) - expected).max() / np.abs(expected).max()
    assert error <= 64 * accuracy.kappa(n, -1.5, 1.0, variant) * np.finfo(float).eps


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
