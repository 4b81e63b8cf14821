"""Correctness checks for every benchmark op, and the FFT reference solve.

Everything here is independent of circkr's factorization: the matrix is
applied by shifted adds, the reference solve is a numpy FFT, and condition
numbers come from the closed-form eigenvalues.  Every check runs outside the
timed region.  No tolerance is looser than circkr's own 1e-8 check bound.
"""

import math

import numpy as np

EPS = np.finfo(float).eps

# circkr's CLI check bound; every tolerance below is at most this.
CHECK_BOUND = 1e-8

# Normwise backward error of an O(n) solve is a few eps; 1e-12 leaves
# margin for n = 65536 while staying four decades under CHECK_BOUND.
BACKWARD_TOL = 1e-12

# Forward error and ||A X - I|| stay below kappa * eps (measured at most
# 0.4 kappa eps on every workload); 64 kappa eps leaves margin.
KAPPA_FACTOR = 64.0


class CheckFailed(Exception):
    """An op's result failed its correctness check."""


def max_safe_n(d):
    """Largest order n whose recurrence f_0 .. f_{n+1} stays finite at ratio d.

    Runs the bare recurrence f_{i+1} = -d f_i - f_{i-1} until it overflows;
    this is the limit past which ``decompose`` raises Overflow.
    """
    if not abs(d) > 2.0:
        raise ValueError(f"the recurrence grows only for |d| > 2, got d = {d}")
    prev, cur, i = 0.0, 1.0, 1
    while True:
        nxt = -d * cur - prev
        if not math.isfinite(nxt):
            return i - 1
        prev, cur, i = cur, nxt, i + 1


def eigenvalues(c, a, n, circulant=True):
    """Exact spectrum: c + 2a cos(2 pi k / n), or c + 2a cos(pi k / (n + 1)) without corners."""
    if circulant:
        return c + 2.0 * a * np.cos(2.0 * np.pi * np.arange(n) / n)
    return c + 2.0 * a * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))


def condition_number(c, a, n, circulant=True):
    """Exact spectral condition number max|lambda| / min|lambda| of the symmetric matrix."""
    lam = np.abs(eigenvalues(c, a, n, circulant))
    return float(lam.max() / lam.min())


def tolerance(kappa):
    """Forward-error tolerance scaled by the condition number, capped at CHECK_BOUND."""
    return min(CHECK_BOUND, KAPPA_FACTOR * kappa * EPS)


def fft_solve(c, a, b):
    """Circulant solve ifft(fft(b) / (c + 2a cos 2 pi k / n)) in O(n log n), per column."""
    lam = eigenvalues(c, a, b.shape[0])
    if b.ndim == 2:
        lam = lam[:, None]
    return np.fft.ifft(np.fft.fft(b, axis=0) / lam, axis=0).real


def matvec(c, a, x, circulant):
    """A @ x in O(n) per column: c x plus a times the cyclic (or plain) shifts of x."""
    y = c * x
    y[1:] += a * x[:-1]
    y[:-1] += a * x[1:]
    if circulant:
        y[0] += a * x[-1]
        y[-1] += a * x[0]
    return y


def backward_error(c, a, b, x, circulant):
    """Largest per-column ||b - A x|| / (||A|| ||x|| + ||b||), infinity norms."""
    residual = np.abs(b - matvec(c, a, x, circulant)).max(axis=0)
    scale = (abs(c) + 2.0 * abs(a)) * np.abs(x).max(axis=0) + np.abs(b).max(axis=0)
    return float(np.max(residual / scale))


def check_solve(c, a, b, x, circulant, reference=None):
    """Check a solve result; returns its backward error.

    Circulant results must also agree with ``reference`` (the FFT solve of
    the same right-hand side) within the condition-scaled tolerance.
    """
    x = np.asarray(x)
    if x.shape != b.shape:
        raise CheckFailed(f"solution has shape {x.shape}, expected {b.shape}")
    if not np.isfinite(x).all():
        raise CheckFailed("solution is not finite")
    err = backward_error(c, a, b, x, circulant)
    if not err <= BACKWARD_TOL:
        raise CheckFailed(f"backward error {err:.3e} exceeds {BACKWARD_TOL:.0e}")
    if circulant:
        kappa = condition_number(c, a, b.shape[0])
        gap = float(np.max(np.abs(x - reference).max(axis=0) / np.abs(reference).max(axis=0)))
        if not gap <= tolerance(kappa):
            raise CheckFailed(
                f"FFT oracle disagrees by {gap:.3e} (tolerance {tolerance(kappa):.3e}, "
                f"kappa {kappa:.4g})"
            )
    return err


def check_inverse(c, a, inverse, circulant):
    """Check ||A X - I||_max within the condition-scaled tolerance, in O(n^2)."""
    n = inverse.shape[0]
    if inverse.shape != (n, n) or not np.isfinite(inverse).all():
        raise CheckFailed(f"inverse is not a finite square matrix (shape {inverse.shape})")
    residual = matvec(c, a, inverse, circulant)
    residual[np.arange(n), np.arange(n)] -= 1.0
    worst = float(np.abs(residual).max())
    limit = tolerance(condition_number(c, a, n, circulant))
    if not worst <= limit:
        raise CheckFailed(f"||A X - I|| = {worst:.3e} exceeds {limit:.3e}")


def check_same_factorization(fct, reference):
    """The traced stage-by-stage factorization must equal the library's bit for bit."""
    same = (
        fct.variant == reference.variant
        and np.array_equal(fct.f, reference.f)
        and np.array_equal(fct.r, reference.r)
        and fct.g == reference.g
    )
    if not same:
        raise CheckFailed("traced factorization differs from the library's")
