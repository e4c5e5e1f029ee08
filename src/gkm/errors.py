"""Exception hierarchy for the gkm package.

One rule: every failure the package reports is a GkmError, so ``except
GkmError`` catches any domain-level failure without swallowing programming
errors.  A failure gets a class of its own only where some code tells it
apart (an ``except``, an ``isinstance`` or a test's ``pytest.raises``);
any other failure is a plain GkmError, and its message says what failed.
The exceptions outside the rule are the exactness guards, which raise
TypeError for a float, str or bool where an exact number belongs, and the
immutable values, which raise AttributeError on assignment.
"""


class GkmError(Exception):
    """Base class for all domain-level errors raised by this package."""


class PreconditionError(GkmError, ValueError):
    """An argument violates a documented precondition of the operation.

    Also a ValueError, the built-in class for a bad argument value.
    """


class NotDivisible(GkmError):
    """Exact division by a linear form failed (violated congruence)."""


class NotGeneric(GkmError):
    """The covector pairs to zero with some edge weight."""


class ScopeError(GkmError):
    """Operation outside its supported valence/rank scope."""


class NotIndexIncreasing(GkmError):
    """Operation requires an index-increasing orientation."""


class Infeasible(GkmError):
    """A linear system expected to be solvable has no solution."""


class NotAClass(GkmError):
    """A vertex assignment violates an edge congruence."""


class DegreeError(GkmError):
    """Degree bookkeeping cannot be satisfied."""


class NonConstant(GkmError):
    """A localization sum failed to reduce to a constant."""


class NonZero(GkmError):
    """A sum asserted to vanish exactly did not."""


class TypeMismatch(GkmError):
    """Instance has the wrong moment-image type for this operation."""


class Degenerate(GkmError):
    """Collinear input outside the tetragon trichotomy's preconditions."""


class InfeasibleInstance(GkmError):
    """Instance violates a structural bound (e.g. more than 8 vertices)."""


class UnknownInstance(GkmError):
    """No corpus instance with the requested name."""


class ParseError(GkmError):
    """Malformed input document."""


class ValidationError(GkmError):
    """Graph failed validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))
