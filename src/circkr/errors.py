"""Structured error types shared across the package.

Every failure mode carries a stable ``kind`` string and a process exit code
so the command line layer can emit a machine-parsable first line of the form
``ERROR <kind>: <detail>`` and exit accordingly.
"""


class CircKRError(Exception):
    """Base class for all structured errors raised by this package."""

    kind = "Error"
    exit_code = 1

    def __init__(self, detail, **info):
        super().__init__(detail)
        self.detail = detail
        for key, value in info.items():
            setattr(self, key, value)


class InvalidSpecError(CircKRError):
    """The system description violates a precondition (order, dominance, a = 0)."""

    kind = "InvalidSpec"
    exit_code = 2


class UsageError(CircKRError):
    """Malformed command line input (unknown flag, unreadable file)."""

    kind = "Usage"
    exit_code = 2


class VariantMismatchError(CircKRError):
    """An operation specific to one matrix variant was applied to the other."""

    kind = "VariantMismatch"
    exit_code = 2


class GrowthOverflowError(CircKRError):
    """A geometrically growing quantity left the 64-bit floating range.

    Instances carry ``failing_index`` and ``growth_ratio`` whenever known, and
    ``max_safe_n`` when raised on behalf of a whole-system factorization.
    """

    kind = "Overflow"
    exit_code = 3


class ZeroPivotError(CircKRError):
    """A recurrence value used as a pivot is exactly zero (permissive mode)."""

    kind = "ZeroPivot"
    exit_code = 4


class SingularPivotError(CircKRError):
    """The closure scalar g vanished: the system is singular."""

    kind = "SingularPivot"
    exit_code = 4


class InconsistencyError(CircKRError):
    """Two algebraically equivalent evaluations disagreed beyond tolerance,
    which signals an upstream overflow or precision failure."""

    kind = "Inconsistency"
    exit_code = 4


class SingularMatrixError(CircKRError):
    """Dense elimination met a zero pivot after partial pivoting."""

    kind = "Singular"
    exit_code = 4


class SingularEigenvalueError(CircKRError):
    """A circulant eigenvalue is (numerically) zero in the spectral formula."""

    kind = "SingularEigenvalue"
    exit_code = 4


class DimensionMismatchError(CircKRError):
    """An operand has the wrong length or shape for the factorization order."""

    kind = "DimensionMismatch"
    exit_code = 5


class SizeGuardError(CircKRError):
    """A dense materialization was requested beyond the supported order, or
    (from the CLI) the order's arrays do not fit in memory."""

    kind = "SizeGuard"
    exit_code = 6
