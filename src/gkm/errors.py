"""Exception hierarchy for the gkm package.

Every failure mode that callers may want to catch individually gets its own
class; all of them derive from GkmError so ``except GkmError`` catches any
domain-level failure without swallowing programming errors.
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


class NonUnique(GkmError):
    """A solution expected to be unique has a positive-dimensional family."""


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


class NotParallel(GkmError):
    """Two vectors expected to be parallel are not."""


class AmbiguousBelowNeighbor(GkmError):
    """The below-neighbor of an index-four vertex is not unique."""


class Mismatch(GkmError):
    """Two independently computed values that must agree exactly differ."""


class TypeMismatch(GkmError):
    """Instance has the wrong moment-image type for this operation."""


class Degenerate(GkmError):
    """Collinear input outside the tetragon trichotomy's preconditions."""


class Unclassifiable(GkmError):
    """Moment-image data matches no classification row."""


class ConditionViolated(GkmError):
    """A sign condition that must hold on validated instances failed."""


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
