"""Bound-constrained test problems with analytic derivatives.

Every problem carries value, gradient and Hessian oracles plus a box, a
reference optimum and a default start.  ``mask_availability`` turns a
problem into an objective spec that exposes only a chosen subset of the
derivatives, one array per order and call; ``add_noise`` wraps a spec
with multiplicative uniform noise on values and derivative components,
and ``model_error_diagnostic`` scores a run's models against a problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import QuadraticModel
from .problem import Bounds, DerivativeAvailability, ObjectiveSpec


@dataclass(frozen=True)
class TestProblem:
    name: str
    dimension: int
    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    bounds: Bounds
    x_start: np.ndarray
    x_opt: np.ndarray
    f_opt: float

    def value(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float)

    def hessian(self, x) -> np.ndarray:
        return np.asarray(self.hess(np.asarray(x, dtype=float)), dtype=float)


def model_error_diagnostic(model: QuadraticModel, problem: TestProblem, halfwidth: float = 0.01) -> float:
    """Squared L2 distance between the model and the second-order Taylor
    expansion of the problem's function at ``model.center``, over the box
    center +- halfwidth.

    Both are quadratics, so the integral is exact from the moments of the
    uniform box, mu2 = h^2/3 and mu4 = h^4/5.  With a, b and C the
    differences of value, gradient and Hessian at the center, it is

        (2h)^n [(a + mu2 tr C/2)^2 + mu2 |b|^2
                + ((mu4 - mu2^2) sum C_ii^2 + 2 mu2^2 sum_{i!=j} C_ij^2)/4],

    a sum of nonnegative terms.
    """
    center = model.center
    h = float(halfwidth)
    mu2, mu4 = h**2 / 3.0, h**4 / 5.0
    a = model.value(center) - problem.value(center)
    b = model.gradient(center) - problem.gradient(center)
    C = model.H - problem.hessian(center)
    diag = np.diag(C)
    off = C - np.diag(diag)
    quartic = (mu4 - mu2**2) * float(diag @ diag) + 2.0 * mu2**2 * float(np.sum(off * off))
    mean_sq = (a + 0.5 * mu2 * float(np.sum(diag))) ** 2 + mu2 * float(b @ b) + 0.25 * quartic
    return float((2.0 * h) ** center.size * mean_sq)


def _box(n: int, lo: float, hi: float) -> Bounds:
    return Bounds(np.full(n, lo), np.full(n, hi))


def rosenbrock(n: int = 2) -> TestProblem:
    """Chained Rosenbrock; the 2-dimensional case is the classic banana."""
    if n < 2:
        raise ValueError("rosenbrock needs n >= 2")

    def fn(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def grad(x):
        g = np.zeros(n)
        t = x[1:] - x[:-1] ** 2
        g[:-1] += -400.0 * x[:-1] * t - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * t
        return g

    def hess(x):
        H = np.zeros((n, n))
        for i in range(n - 1):
            H[i, i] += -400.0 * (x[i + 1] - x[i] ** 2) + 800.0 * x[i] ** 2 + 2.0
            H[i + 1, i + 1] += 200.0
            H[i, i + 1] += -400.0 * x[i]
            H[i + 1, i] += -400.0 * x[i]
        return H

    start = np.array([1.2, 2.0]) if n == 2 else np.full(n, 0.8)
    return TestProblem(
        name=f"rosenbrock{n}",
        dimension=n,
        fn=fn,
        grad=grad,
        hess=hess,
        bounds=_box(n, -5.0, 10.0),
        x_start=start,
        x_opt=np.ones(n),
        f_opt=0.0,
    )


def sphere(n: int) -> TestProblem:
    def fn(x):
        return float(x @ x)

    return TestProblem(
        name=f"sphere{n}",
        dimension=n,
        fn=fn,
        grad=lambda x: 2.0 * x,
        hess=lambda x: 2.0 * np.eye(n),
        bounds=_box(n, -2.0, 2.0),
        x_start=np.ones(n),
        x_opt=np.zeros(n),
        f_opt=0.0,
    )


def booth() -> TestProblem:
    def fn(x):
        return float((x[0] + 2 * x[1] - 7) ** 2 + (2 * x[0] + x[1] - 5) ** 2)

    def grad(x):
        return np.array(
            [10 * x[0] + 8 * x[1] - 34.0, 8 * x[0] + 10 * x[1] - 38.0]
        )

    return TestProblem(
        name="booth2",
        dimension=2,
        fn=fn,
        grad=grad,
        hess=lambda x: np.array([[10.0, 8.0], [8.0, 10.0]]),
        bounds=_box(2, -10.0, 10.0),
        x_start=np.array([0.0, 0.0]),
        x_opt=np.array([1.0, 3.0]),
        f_opt=0.0,
    )


def matyas() -> TestProblem:
    def fn(x):
        return float(0.26 * (x[0] ** 2 + x[1] ** 2) - 0.48 * x[0] * x[1])

    def grad(x):
        return np.array([0.52 * x[0] - 0.48 * x[1], 0.52 * x[1] - 0.48 * x[0]])

    return TestProblem(
        name="matyas2",
        dimension=2,
        fn=fn,
        grad=grad,
        hess=lambda x: np.array([[0.52, -0.48], [-0.48, 0.52]]),
        bounds=_box(2, -10.0, 10.0),
        x_start=np.array([3.0, -4.0]),
        x_opt=np.zeros(2),
        f_opt=0.0,
    )


def beale() -> TestProblem:
    c = np.array([1.5, 2.25, 2.625])
    k = np.array([1, 2, 3])

    def terms(x):
        return c + x[0] * (x[1] ** k - 1.0)

    def fn(x):
        return float(np.sum(terms(x) ** 2))

    def grad(x):
        t = terms(x)
        dx = x[1] ** k - 1.0
        dy = k * x[0] * x[1] ** (k - 1)
        return np.array([2 * np.sum(t * dx), 2 * np.sum(t * dy)])

    def hess(x):
        t = terms(x)
        dx = x[1] ** k - 1.0
        dy = k * x[0] * x[1] ** (k - 1)
        dxy = k * x[1] ** (k - 1)
        dyy = k * (k - 1) * x[0] * x[1] ** (k - 2)
        H = np.zeros((2, 2))
        H[0, 0] = 2 * np.sum(dx * dx)
        H[0, 1] = H[1, 0] = 2 * np.sum(dx * dy + t * dxy)
        H[1, 1] = 2 * np.sum(dy * dy + t * dyy)
        return H

    return TestProblem(
        name="beale2",
        dimension=2,
        fn=fn,
        grad=grad,
        hess=hess,
        bounds=_box(2, -4.5, 4.5),
        x_start=np.array([2.0, 0.2]),
        x_opt=np.array([3.0, 0.5]),
        f_opt=0.0,
    )


def zakharov(n: int) -> TestProblem:
    a = 0.5 * np.arange(1, n + 1)

    def fn(x):
        w = float(a @ x)
        return float(x @ x + w**2 + w**4)

    def grad(x):
        w = float(a @ x)
        return 2.0 * x + (2.0 * w + 4.0 * w**3) * a

    def hess(x):
        w = float(a @ x)
        return 2.0 * np.eye(n) + (2.0 + 12.0 * w**2) * np.outer(a, a)

    return TestProblem(
        name=f"zakharov{n}",
        dimension=n,
        fn=fn,
        grad=grad,
        hess=hess,
        bounds=_box(n, -5.0, 10.0),
        x_start=np.full(n, 0.5),
        x_opt=np.zeros(n),
        f_opt=0.0,
    )


def trid(n: int) -> TestProblem:
    def fn(x):
        return float(np.sum((x - 1.0) ** 2) - np.sum(x[1:] * x[:-1]))

    def grad(x):
        g = 2.0 * (x - 1.0)
        g[:-1] -= x[1:]
        g[1:] -= x[:-1]
        return g

    def hess(x):
        H = 2.0 * np.eye(n)
        idx = np.arange(n - 1)
        H[idx, idx + 1] = -1.0
        H[idx + 1, idx] = -1.0
        return H

    i = np.arange(1, n + 1)
    return TestProblem(
        name=f"trid{n}",
        dimension=n,
        fn=fn,
        grad=grad,
        hess=hess,
        bounds=_box(n, -float(n**2), float(n**2)),
        x_start=np.zeros(n),
        x_opt=i * (n + 1.0 - i),
        f_opt=-n * (n + 4.0) * (n - 1.0) / 6.0,
    )


def rotated_ellipsoid(n: int) -> TestProblem:
    L = np.tril(np.ones((n, n)))
    Q = 2.0 * L.T @ L

    def fn(x):
        s = np.cumsum(x)
        return float(s @ s)

    return TestProblem(
        name=f"rotellipsoid{n}",
        dimension=n,
        fn=fn,
        grad=lambda x: Q @ x,
        hess=lambda x: Q.copy(),
        bounds=_box(n, -10.0, 10.0),
        x_start=np.ones(n),
        x_opt=np.zeros(n),
        f_opt=0.0,
    )


def qing(n: int) -> TestProblem:
    i = np.arange(1, n + 1, dtype=float)

    def fn(x):
        return float(np.sum((x**2 - i) ** 2))

    def grad(x):
        return 4.0 * x * (x**2 - i)

    def hess(x):
        return np.diag(12.0 * x**2 - 4.0 * i)

    # the box keeps only the positive-root optimum feasible
    return TestProblem(
        name=f"qing{n}",
        dimension=n,
        fn=fn,
        grad=grad,
        hess=hess,
        bounds=_box(n, 0.0, 10.0),
        x_start=np.full(n, 2.0),
        x_opt=np.sqrt(i),
        f_opt=0.0,
    )


def second_order_closure(first_order) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with i <= j drawn from the known directions."""
    dirs = sorted(first_order)
    return tuple((a, b) for ai, a in enumerate(dirs) for b in dirs[ai:])


def mask_availability(
    problem: TestProblem,
    first_order,
    second_order=(),
) -> ObjectiveSpec:
    """Objective spec exposing only the masked directions and pairs, read
    from one gradient or Hessian per oracle call."""
    avail = DerivativeAvailability(frozenset(first_order), frozenset(second_order))
    axes = [i - 1 for i in avail.directions]
    rows, cols = [[p[k] - 1 for p in avail.pairs] for k in (0, 1)]

    def derivative(x):
        return problem.gradient(x)[axes]

    def second(x):
        return problem.hessian(x)[rows, cols]

    return ObjectiveSpec(
        dimension=problem.dimension,
        value=problem.value,
        bounds=problem.bounds,
        availability=avail,
        derivative=derivative,
        second_derivative=second,
        name=problem.name,
    )


def add_noise(spec: ObjectiveSpec, amplitude: float, seed: int) -> ObjectiveSpec:
    """Multiplicative uniform noise: every value and every derivative
    component is scaled by an independent fresh (1 + xi), xi ~ U(-a, a).

    A derivative call draws its xi as one array, the same stream as one
    scalar draw per component.
    """
    if amplitude < 0:
        raise ValueError("noise amplitude must be nonnegative")
    rng = np.random.default_rng(seed)

    def value(x):
        return spec.value(x) * (1.0 + rng.uniform(-amplitude, amplitude))

    def perturbed(oracle):
        def noisy(x):
            entries = np.asarray(oracle(x), dtype=float)
            return entries * (1.0 + rng.uniform(-amplitude, amplitude, size=entries.shape))

        return noisy

    return ObjectiveSpec(
        dimension=spec.dimension,
        value=value,
        bounds=spec.bounds,
        availability=spec.availability,
        derivative=perturbed(spec.derivative) if spec.derivative else None,
        second_derivative=perturbed(spec.second_derivative) if spec.second_derivative else None,
        name=spec.name + f"+noise{amplitude:g}",
    )


# noise amplitudes for the benchmark noise modes on test problems
NOISE_AMPLITUDES = {"none": 0.0, "low": 1e-2, "high": 1e-1}

PROBLEMS: dict[str, TestProblem] = {
    p.name: p
    for p in (
        rosenbrock(2),
        rosenbrock(5),
        rosenbrock(10),
        rosenbrock(20),
        sphere(2),
        sphere(3),
        sphere(4),
        sphere(5),
        sphere(10),
        booth(),
        matyas(),
        beale(),
        zakharov(3),
        zakharov(5),
        zakharov(10),
        zakharov(20),
        trid(3),
        trid(4),
        rotated_ellipsoid(4),
        qing(5),
    )
}


def get_problem(name: str) -> TestProblem:
    try:
        return PROBLEMS[name]
    except KeyError:
        raise ValueError(f"unknown problem {name!r}; known: {', '.join(sorted(PROBLEMS))}") from None
