"""Exception types shared across the package.

Bad input raises ``ValueError``; a type here exists because some code
catches it: ``run`` acts on ``RankDeficient`` and ``DuplicatePoint``, and
the evaluator lets ``OutOfBounds`` through unbilled.
"""


class HermiteOptError(Exception):
    """Base class of the package's own exception types."""


class OutOfBounds(HermiteOptError):
    """A point violates the box constraints."""


class DuplicatePoint(HermiteOptError):
    """A point coincides (up to tolerance) with one already stored."""


class RankDeficient(HermiteOptError):
    """The system matrix is numerically rank deficient; the training-set
    geometry needs repair before a model can be trusted."""
