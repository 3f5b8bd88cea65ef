"""Exception hierarchy shared by all strongblock modules."""


class StrongBlockError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeP(StrongBlockError):
    """The requested characteristic is not a prime number."""


class FieldTooLarge(StrongBlockError):
    """The requested field order exceeds the configured cap."""


class ReducibleModulus(StrongBlockError):
    """A user-supplied modulus polynomial factors over the prime field."""


class NonPrimitiveModulus(StrongBlockError):
    """A user-supplied modulus is irreducible but its root does not generate
    the multiplicative group."""


class NotADivisor(StrongBlockError):
    """A subfield degree that does not divide the extension degree."""


class DimensionMismatch(StrongBlockError):
    """Point/hyperplane/space dimensions do not agree."""


class RepeatedCoset(StrongBlockError):
    """Two defining elements lie in the same coset of R*."""


class RankDeficient(StrongBlockError):
    """A point set that must span the whole space does not."""


class BudgetExceeded(StrongBlockError):
    """An exhaustive scan or enumeration would exceed the configured budget."""


class InconclusiveE(StrongBlockError):
    """Some admissible exponent could not be excluded by the interval test."""
