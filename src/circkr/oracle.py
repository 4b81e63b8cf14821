"""Reference implementations used to cross-check the structured paths.

Everything here is deliberately independent of the factorization modules:
dense assembly writes the matrix entries directly from the system
description, the dense solver is plain partial-pivoting Gaussian
elimination, and the spectral routes evaluate the eigenvalue formulas of
the circulant and the plain tridiagonal matrix.  The dense elimination is
kept for the tests; ``circkr check`` verifies its solves against the
O(n log n) spectral solve, so it holds no dense matrix of its own.  Tests
compare these references against the O(n) machinery; a substitution of
either side alone must keep the cross-check meaningful.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    SingularEigenvalueError,
    SingularMatrixError,
    SizeGuardError,
)

# Same dense cap as the factor side, restated here so the reference path
# does not depend on it.
DENSE_ORDER_LIMIT = 10_000


def _guard_order(n, what):
    if n > DENSE_ORDER_LIMIT:
        raise SizeGuardError(f"{what} is capped at order {DENSE_ORDER_LIMIT}, got n = {n}")


def build_dense(spec, variant="circulant"):
    """Dense matrix for ``spec``: diagonal c, off-diagonals a, and, for the
    circulant variant, the two corner entries a."""
    n = spec.n
    _guard_order(n, "dense assembly")
    if variant not in ("circulant", "tridiagonal"):
        raise ValueError(f"unknown variant {variant!r}")
    out = np.zeros((n, n))
    np.fill_diagonal(out, spec.c)
    steps = np.arange(n - 1)
    out[steps, steps + 1] = spec.a
    out[steps + 1, steps] = spec.a
    if variant == "circulant":
        out[0, n - 1] = spec.a
        out[n - 1, 0] = spec.a
    return out


def _rhs_block(rhs, n):
    # A right-hand side as an (n, k) block, and whether it was one vector.
    b = np.asarray(rhs, dtype=float)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    if b.ndim != 2 or b.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side must have leading dimension {n}, got shape {b.shape}"
        )
    return b, single


def dense_solve(matrix, rhs):
    """Gaussian elimination with partial pivoting, the dense reference solve.

    Accepts a single right-hand side (length n) or a block (n, k) and
    returns the solution in the same shape.  Raises SingularMatrixError
    when the best remaining pivot is numerically zero.

    Each step updates, one row at a time and in place, only the rows whose
    entry in the pivot column is nonzero.  On this family's matrices that is
    at most two rows per step, so elimination is O(n^2).  The trade-off is
    a fully dense matrix, where every row changes at every step: the per-row
    calls make it 2.3-3.2 times as slow as one outer-product update of the
    trailing block (64-105 against 27-39 ms at n = 256).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got shape {matrix.shape}")
    n = matrix.shape[0]
    b, single = _rhs_block(rhs, n)
    pivot_floor = n * np.finfo(float).eps * max(np.abs(matrix).max(), np.finfo(float).tiny)
    work = np.concatenate((matrix, b), axis=1)
    for k in range(n):
        # |x| is nonzero exactly where x is (NaN too), so the pivot search's
        # magnitudes also name the rows this step changes.
        mag = np.abs(work[k:, k])
        lead = int(np.argmax(mag))
        if mag[lead] <= pivot_floor:
            raise SingularMatrixError(
                f"zero pivot in column {k + 1} after partial pivoting"
            )
        if lead:
            work[[k, k + lead]] = work[[k + lead, k]]
            mag[[0, lead]] = mag[[lead, 0]]
        pivot = work[k, k:]
        for i in np.flatnonzero(mag[1:]).tolist():
            row = work[k + 1 + i, k:]
            row -= row[0] / pivot[0] * pivot
    # Solve on a contiguous copy of B, so BLAS sums each row as on a plain block.
    x = work[:, n:].copy()
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - work[k, k + 1 : n] @ x[k + 1 :]) / work[k, k]
    return x[:, 0] if single else x


def _eigenvalues(spec, variant):
    """c + 2 a cos(theta) over the variant's eigenvector angles, 2 pi k / n
    for the circulant (k = 0 .. n-1) and pi k / (n+1) for the tridiagonal
    matrix (k = 1 .. n).  An eigenvalue no larger in magnitude than
    1e-14 (|c| + 2|a|) raises SingularEigenvalueError, naming its k."""
    if variant == "circulant":
        k = np.arange(spec.n)
        angles = 2.0 * np.pi * k / spec.n
    elif variant == "tridiagonal":
        k = np.arange(1, spec.n + 1)
        angles = np.pi * k / (spec.n + 1)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    lam = spec.c + 2.0 * spec.a * np.cos(angles)
    floor = 1e-14 * (abs(spec.c) + 2.0 * abs(spec.a))
    small = np.abs(lam) <= floor
    if small.any():
        j = int(np.nonzero(small)[0][0])
        raise SingularEigenvalueError(
            f"{variant} eigenvalue {k[j]} is numerically zero ({lam[j]})"
        )
    return lam


def _sine_transform(b):
    # DST-I along axis 0, sum_j b_j sin(pi j k / (n+1)) for k = 1 .. n, as
    # the real FFT of the odd extension (0, b, 0, -reversed b).
    n = b.shape[0]
    odd = np.zeros((2 * (n + 1),) + b.shape[1:])
    odd[1 : n + 1] = b
    odd[n + 2 :] = -b[::-1]
    return np.fft.rfft(odd, axis=0)[1 : n + 1].imag * -0.5


def spectral_solve(spec, rhs, variant="circulant"):
    """Solve A x = rhs in the eigenbasis of A, the O(n log n) reference solve.

    Accepts a single right-hand side (length n) or a block (n, k) and
    returns the solution in the same shape.  The circulant matrix is
    diagonalized by the real FFT, the tridiagonal one by the discrete sine
    transform (DST-I), taken as a real FFT of length 2(n+1); DST-I is its
    own inverse up to the factor 2 / (n+1).  A numerically zero eigenvalue
    raises SingularEigenvalueError, as in ``spectral_inverse_first_row``.
    """
    lam = _eigenvalues(spec, variant)
    n = spec.n
    b, single = _rhs_block(rhs, n)
    if variant == "circulant":
        x = np.fft.irfft(np.fft.rfft(b, axis=0) / lam[: n // 2 + 1, None], n, axis=0)
    else:
        x = _sine_transform(_sine_transform(b) / lam[:, None]) * (2.0 / (n + 1))
    return x[:, 0] if single else x


def spectral_inverse_first_row(spec):
    """The circulant inverse's first row, from its eigenvalues by one inverse FFT.

    (A^-1)_{1,1+k} = (1/n) * sum_j cos(2 pi j k / n) / (c + 2 a cos(2 pi j / n)),
    meaningful for the circulant variant only.  An eigenvalue no larger in
    magnitude than 1e-14 (|c| + 2|a|) raises SingularEigenvalueError.
    """
    _guard_order(spec.n, "spectral row evaluation")
    return np.fft.ifft(1.0 / _eigenvalues(spec, "circulant")).real
