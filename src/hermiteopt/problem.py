"""Objectives with partially available derivatives, bounds and training data.

Direction indices are 1-based throughout the public API: direction ``i``
refers to the variable ``x_i`` with ``1 <= i <= n``.  Second-order entries
are index pairs ``(i, j)`` stored with ``i <= j``.

Nothing here counts evaluations: :func:`evaluate` only calls the oracles,
and the driver's ``Evaluator`` owns the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import DuplicatePoint, OutOfBounds

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

    ``derivative(x)`` returns the known first partials at ``x``, one entry
    per direction of ``availability.directions`` (ascending), and
    ``second_derivative(x)`` one entry per pair of ``availability.pairs``
    (lexicographic).  :func:`evaluate` calls each at most once per point.
    """

    dimension: int
    value: Callable[[Vector], float]
    bounds: Bounds
    availability: DerivativeAvailability = field(default_factory=DerivativeAvailability)
    derivative: Callable[[Vector], Vector] | None = None
    second_derivative: Callable[[Vector], Vector] | None = None
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


def _entries(oracle, x: Vector, labels: tuple) -> dict:
    """One oracle call keyed by ``labels`` (no call without labels); any
    shape but one entry per label raises ValueError."""
    if not labels:
        return {}
    entries = np.asarray(oracle(x), dtype=float)
    if entries.shape != (len(labels),):
        raise ValueError(f"oracle returned shape {entries.shape}, expected ({len(labels)},)")
    return dict(zip(labels, entries.tolist()))


def evaluate(spec: ObjectiveSpec, x: Vector) -> EvaluationRecord:
    """Evaluate the objective at ``x`` and collect every available derivative.

    Calls ``value``, then ``derivative`` and ``second_derivative`` once
    each when they have entries.  Counts nothing: the solver's
    ``Evaluator`` bills the call, one per point, derivatives included.
    """
    x = np.asarray(x, dtype=float)
    if not spec.bounds.contains(x):
        raise OutOfBounds(f"point {x} violates bounds")
    value = float(spec.value(x))
    gradient = _entries(spec.derivative, x, spec.availability.directions)
    second = _entries(spec.second_derivative, x, spec.availability.pairs)
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
            raise ValueError("a training set needs at least one record")
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
