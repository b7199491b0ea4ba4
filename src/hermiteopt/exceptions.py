"""Exception types shared across the package."""


class HermiteOptError(Exception):
    """Base class for all errors raised by this package."""


class OutOfBounds(HermiteOptError):
    """A point violates the box constraints."""


class DuplicatePoint(HermiteOptError):
    """A point coincides (up to tolerance) with one already stored."""


class EmptySet(HermiteOptError):
    """An operation requires a non-empty training set."""


class WrongSetSize(HermiteOptError):
    """The training set size does not match the model kind's requirement."""


class Underdetermined(HermiteOptError):
    """A regression system has fewer rows than columns."""


class MissingDerivative(HermiteOptError):
    """A training record lacks a derivative entry the assembly needs."""


class KindMismatch(HermiteOptError):
    """An operation was applied to a system kind it does not support."""


class RankDeficient(HermiteOptError):
    """The system matrix is numerically rank deficient; the training-set
    geometry needs repair before a model can be trusted."""


class UnknownProblem(HermiteOptError):
    """A benchmark problem name does not resolve in the registry."""


class MalformedInput(HermiteOptError):
    """A results or plan file cannot be parsed."""

