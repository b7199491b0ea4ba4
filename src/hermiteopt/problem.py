"""Objectives with partially available derivatives, bounds and training data.

Direction indices are 1-based throughout the public API: direction ``i``
refers to the variable ``x_i`` with ``1 <= i <= n``.  Second-order entries
are index pairs ``(i, j)`` stored with ``i <= j``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import (
    BudgetExhausted,
    DuplicatePoint,
    EmptySet,
    OutOfBounds,
    UnavailableDerivative,
)

Vector = np.ndarray


def points_equal(a: Vector, b: Vector) -> bool:
    """Two points are considered identical when their infinity-norm distance
    is below ``1e-14 * max(1, scale)`` with scale the larger point norm."""
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) < 1e-14 * scale


def rows_equal(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``points_equal(p, y)`` for every row ``p`` of ``points``, as one
    array test with the same formula.  For one point ``x`` the result has
    one entry per row; for a stack of points, one row per point."""
    x = np.asarray(x, dtype=float)
    x_scale = np.maximum(1.0, np.max(np.abs(x), axis=-1))[..., None]
    scale = np.maximum(np.max(np.abs(points), axis=1), x_scale)
    return np.max(np.abs(points - x[..., None, :]), axis=-1) < 1e-14 * scale


@dataclass(frozen=True)
class Bounds:
    """Componentwise box ``lower <= x <= upper``."""

    lower: Vector
    upper: Vector

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be two vectors of equal length")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, x: Vector) -> bool:
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def clip(self, x: Vector) -> Vector:
        return np.minimum(self.upper, np.maximum(self.lower, x))

    @classmethod
    def unbounded(cls, n: int) -> "Bounds":
        return cls(np.full(n, -np.inf), np.full(n, np.inf))


@dataclass(frozen=True)
class DerivativeAvailability:
    """Index sets of known first- and second-order derivative directions."""

    first_order: frozenset[int] = frozenset()
    second_order: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "first_order", frozenset(int(i) for i in self.first_order))
        object.__setattr__(
            self,
            "second_order",
            frozenset((int(i), int(j)) for i, j in self.second_order),
        )
        for i, j in self.second_order:
            if i > j:
                raise ValueError("second-order pairs must be stored with i <= j")

    def validate(self, n: int) -> None:
        for i in self.first_order:
            if not 1 <= i <= n:
                raise ValueError(f"first-order direction {i} outside [1, {n}]")
        for i, j in self.second_order:
            if not (1 <= i <= j <= n):
                raise ValueError(f"second-order pair ({i}, {j}) outside range")

    @property
    def k_d(self) -> int:
        return len(self.first_order)

    @property
    def directions(self) -> tuple[int, ...]:
        """Known first-order directions in ascending order."""
        return tuple(sorted(self.first_order))

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Known second-order pairs in lexicographic order."""
        return tuple(sorted(self.second_order))


@dataclass(frozen=True)
class TaylorReference:
    """Noise-free value/gradient/Hessian oracles of a test function.

    Only used by diagnostics; never billed against the evaluation budget.
    """

    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    hessian: Callable[[Vector], np.ndarray]


@dataclass
class ObjectiveSpec:
    """An objective together with its declared derivative availability.

    ``derivative(x, i)`` and ``second_derivative(x, (i, j))`` may only be
    queried for directions declared in ``availability``; any other query
    raises :class:`UnavailableDerivative`.
    """

    dimension: int
    value: Callable[[Vector], float]
    bounds: Bounds
    availability: DerivativeAvailability = field(default_factory=DerivativeAvailability)
    derivative: Callable[[Vector, int], float] | None = None
    second_derivative: Callable[[Vector, tuple[int, int]], float] | None = None
    taylor_reference: TaylorReference | None = None
    name: str = ""

    def __post_init__(self):
        if self.bounds.dimension != self.dimension:
            raise ValueError("bounds dimension mismatch")
        self.availability.validate(self.dimension)
        if self.availability.first_order and self.derivative is None:
            raise ValueError("first-order availability declared without an oracle")
        if self.availability.second_order and self.second_derivative is None:
            raise ValueError("second-order availability declared without an oracle")

    def partial(self, x: Vector, i: int) -> float:
        if i not in self.availability.first_order:
            raise UnavailableDerivative(f"direction {i} is not declared available")
        return float(self.derivative(x, i))

    def second(self, x: Vector, pair: tuple[int, int]) -> float:
        pair = (int(pair[0]), int(pair[1]))
        if pair not in self.availability.second_order:
            raise UnavailableDerivative(f"pair {pair} is not declared available")
        return float(self.second_derivative(x, pair))


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated point: value plus every available derivative entry."""

    point: Vector
    value: float
    gradient: dict[int, float] = field(default_factory=dict)
    second: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        pt = np.array(self.point, dtype=float)
        pt.flags.writeable = False
        object.__setattr__(self, "point", pt)


@dataclass
class EvaluationBudget:
    """Counts billed objective calls against a hard maximum."""

    max_evaluations: int
    evaluations_used: int = 0

    def charge(self) -> None:
        if self.evaluations_used >= self.max_evaluations:
            raise BudgetExhausted(
                f"budget of {self.max_evaluations} evaluations exhausted"
            )
        self.evaluations_used += 1


def evaluate(spec: ObjectiveSpec, x: Vector, budget: EvaluationBudget) -> EvaluationRecord:
    """Evaluate the objective at ``x`` and collect every available derivative.

    Bills exactly one objective call; derivative queries are free, matching
    the premise that known derivatives come at negligible cost.
    """
    x = np.asarray(x, dtype=float)
    if not spec.bounds.contains(x):
        raise OutOfBounds(f"point {x} violates bounds")
    budget.charge()
    value = float(spec.value(x))
    gradient = {i: spec.partial(x, i) for i in spec.availability.directions}
    second = {pair: spec.second(x, pair) for pair in spec.availability.pairs}
    return EvaluationRecord(point=x, value=value, gradient=gradient, second=second)


def _argmin_earliest(values) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] < values[best]:
            best = i
    return best


@dataclass(frozen=True)
class TrainingSet:
    """Fixed-size set of evaluation records with a protected incumbent.

    The incumbent is the record with the smallest value; ties are broken by
    earliest insertion.  The set size stays constant across replacements.
    """

    records: tuple[EvaluationRecord, ...]
    incumbent_index: int

    @classmethod
    def from_records(cls, records) -> "TrainingSet":
        records = tuple(records)
        if not records:
            raise EmptySet("a training set needs at least one record")
        ts = cls(records, _argmin_earliest([r.value for r in records]))
        pairs = np.argwhere(np.triu(rows_equal(ts.points, ts.points), k=1))
        if pairs.size:
            a, b = pairs[0]
            raise DuplicatePoint(f"records {a} and {b} coincide")
        return ts

    @property
    def size(self) -> int:
        return len(self.records)

    @property
    def dimension(self) -> int:
        return self.records[0].point.size

    @cached_property
    def points(self) -> np.ndarray:
        """Record points as rows; computed once per set, so read-only."""
        pts = np.array([r.point for r in self.records])
        pts.flags.writeable = False
        return pts

    @property
    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    @property
    def incumbent_record(self) -> EvaluationRecord:
        return self.records[self.incumbent_index]

    def replace(self, outgoing_index: int, incoming: EvaluationRecord) -> "TrainingSet":
        if not 0 <= outgoing_index < self.size:
            raise IndexError(f"index {outgoing_index} outside training set")
        clash = rows_equal(self.points, incoming.point)
        clash[outgoing_index] = False
        if np.any(clash):
            raise DuplicatePoint("incoming point coincides with a retained one")
        records = list(self.records)
        records[outgoing_index] = incoming
        return TrainingSet(tuple(records), _argmin_earliest([r.value for r in records]))


def incumbent(ts: TrainingSet) -> tuple[Vector, float]:
    """Return the incumbent point and its value."""
    rec = ts.incumbent_record
    return rec.point, rec.value
