"""Exception types with stable machine-readable codes.

Two families matter to callers: ``UsageError`` (bad input or bad request,
CLI exit status 1) and ``MathematicalRefusal`` (the input is well formed but
the mathematics does not apply, e.g. a polynomial that is not a unit of the
convolution algebra; CLI exit status 2).  A plain ``UsageError``, such as an
argv the CLI's argument parser rejects, carries the code ``USAGE``.
"""


class PadicEntropyError(Exception):
    code = "ERROR"
    exit_status = 1


class UsageError(PadicEntropyError):
    code = "USAGE"
    exit_status = 1


class MathematicalRefusal(PadicEntropyError):
    exit_status = 2


class ZeroDenominator(UsageError):
    code = "ZERO_DENOMINATOR"


class NotPrime(UsageError):
    code = "NOT_PRIME"


class PrimeMismatch(UsageError):
    code = "PRIME_MISMATCH"


class DimensionMismatch(UsageError):
    code = "DIMENSION_MISMATCH"


class DomainMismatch(UsageError):
    code = "DOMAIN_MISMATCH"


class InvalidQuotient(UsageError):
    code = "INVALID_QUOTIENT"


class OrderOverflow(UsageError):
    code = "ORDER_OVERFLOW"


class NonAbelianQuotient(UsageError):
    code = "NONABELIAN_QUOTIENT"


class NotPrimitive(UsageError):
    code = "NOT_PRIMITIVE"


class ZeroPolynomial(UsageError):
    code = "ZERO_POLYNOMIAL"


class TooFewRecords(UsageError):
    code = "TOO_FEW_RECORDS"


class UnreadableFile(UsageError):
    code = "UNREADABLE_FILE"


class PolySyntaxError(UsageError):
    code = "SYNTAX"

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class DimensionInconsistent(UsageError):
    code = "DIMENSION_INCONSISTENT"


class ZeroInput(MathematicalRefusal):
    code = "ZERO_INPUT"


class IndistinguishableAtPrecision(MathematicalRefusal):
    """A comparison or construction would have to guess digits beyond the
    tracked precision.  Raised instead of silently deciding."""

    code = "INDISTINGUISHABLE_AT_PRECISION"


class NotACZeroUnit(MathematicalRefusal):
    """The element reduces mod p to something other than a nonzero monomial,
    i.e. it vanishes somewhere on the p-adic torus."""

    code = "NOT_C0_UNIT"


class NotAOneUnit(MathematicalRefusal):
    code = "NOT_A_ONE_UNIT"


class SingularRho(MathematicalRefusal):
    code = "SINGULAR_RHO"


class InfiniteFixedPointSet(MathematicalRefusal):
    """The finite-quotient determinant vanished: the fixed-point set is
    infinite for this quotient."""

    code = "INFINITE_FIXED_POINT_SET"

    def __init__(self, message, quotient=None):
        super().__init__(message)
        self.quotient = quotient


class ZeroSlopePresent(MathematicalRefusal):
    """The Newton polygon has a zero-slope segment: some root sits on the
    p-adic unit circle and the expansiveness hypothesis fails."""

    code = "ZERO_SLOPE_PRESENT"
