"""Exception types shared across the library.

Every precondition failure raises a named subclass of SrlabError so callers
(and the CLI) can map failures to exit codes without parsing messages.
BudgetExceeded is special: enumeration routines attach the best upper bound
they found before running out of budget.
"""


class SrlabError(ValueError):
    """Base class for all library errors."""


class NotPrime(SrlabError):
    pass


class Reducible(SrlabError):
    pass


class DegreeMismatch(SrlabError):
    pass


class NotSubfield(SrlabError):
    pass


class LengthMismatch(SrlabError):
    pass


class DimensionMismatch(SrlabError):
    pass


class NotCoprime(SrlabError):
    pass


class NoNontrivialCoset(SrlabError):
    pass


class BadDelta(SrlabError):
    pass


class NotDivisor(SrlabError):
    pass


class ProfileMismatch(SrlabError):
    pass


class FieldMismatch(SrlabError):
    pass


class NonUniformProfile(SrlabError):
    pass


class NotSelfDual(SrlabError):
    pass


class SearchExceeded(SrlabError):
    pass


class DistanceExceedsLength(SrlabError):
    pass


class MethodUnavailable(SrlabError):
    pass


class UnknownTable(SrlabError):
    pass


class EntryOutOfRange(SrlabError):
    """A generator entry is not a canonical element of the code's field."""


class MalformedInput(SrlabError):
    """JSON input that does not have the wire format's shape or value types."""


class NotAnObject(MalformedInput):
    """JSON input with a non-object where the wire format has an object."""


class LengthTooLarge(SrlabError):
    """A length from outside (code, profile, cyclic length, exponent) above
    linalg.MAX_LENGTH."""


class BadPolynomial(SrlabError):
    """Polynomial text the table-style parser cannot read."""


class FieldTooLarge(SrlabError):
    """A characteristic or field order above 2^32, rejected before any search."""


class NegativeBudget(SrlabError):
    pass


class UsageError(SrlabError):
    """Command-line arguments the front end cannot act on."""


class ZeroCode(SrlabError):
    """Distance queries on the zero code are undefined."""


class BudgetExceeded(SrlabError):
    """Enumeration budget ran out before the search completed.

    `best` carries the lightest weight seen so far (an upper bound on the
    true minimum, not exact) and `enumerated` how many words were examined.
    """

    def __init__(self, message, best=None, enumerated=0):
        super().__init__(message)
        self.best = best
        self.enumerated = enumerated
