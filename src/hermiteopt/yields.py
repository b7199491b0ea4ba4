"""Monte-Carlo yield estimation and optimization demo.

A design is parameterized by two uncertain geometry means (Gaussian with
fixed deviation) and two deterministic knobs.  A smooth surrogate stands
in for the frequency response of a real device: the requirement is that
the response stays below a threshold on an 11-point frequency grid, and
the yield is the probability that a random realization of the uncertain
parameters meets the requirement.

The yield derivative with respect to the uncertain means has a closed
form over the Monte-Carlo sample: the means are known directions, the
deterministic knobs are not, which is exactly the mixed-information
setting the optimizer targets.  Only fixed-shifted sampling gives the
value and both derivatives one shared sample (one estimate per point);
resampled modes draw afresh for the value and for each derivative
component (ROADMAP direction 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .problem import Bounds, DerivativeAvailability, ObjectiveSpec

R_GRID = 2.0 * np.pi * np.linspace(6.5, 7.5, 11)
SIGMA = 0.7
THRESHOLD = -24.0
START_POINT = np.array([9.0, 5.0, 1.0, 1.0])
START_YIELD = 0.428
MEAN_DIRECTIONS = (1, 2)  # the uncertain means, whose derivatives are known

_BASE_LEVEL = -30.0
_BUMP = 8.0
_RIPPLE = 0.4
_S_MAX = float(np.max(np.sin(R_GRID)))
# the largest ripple term exactly as surrogate_response rounds it on the grid
_RIPPLE_MAX = np.max(_RIPPLE * np.sin(R_GRID[None, :]))
# decay constant calibrated so the exact start-configuration yield (means
# centered on the response bump) equals START_YIELD
_RHO_SAFE_SQ = -2.0 * SIGMA**2 * np.log(START_YIELD)
DECAY = _RHO_SAFE_SQ / (-np.log((THRESHOLD - _BASE_LEVEL - _RIPPLE * _S_MAX) / _BUMP))

BOUNDS = Bounds(
    np.array([5.0, 1.0, 0.0, 0.0]),
    np.array([13.0, 9.0, 2.0, 2.0]),
)


class SamplingMode(Enum):
    FIXED_SHIFTED = "fixed-shifted"
    RESAMPLED = "resampled"


def surrogate_response(r, p1, p2, d1, d2):
    """Stand-in frequency response; a Gaussian bump whose center moves
    with the deterministic knobs, plus a frequency ripple."""
    c1 = 9.0 + 2.0 * (d1 - 1.0)
    c2 = 5.0 + 2.0 * (d2 - 1.0)
    rho2 = (np.asarray(p1) - c1) ** 2 + (np.asarray(p2) - c2) ** 2
    return _BASE_LEVEL + _BUMP * np.exp(-rho2 / DECAY) + _RIPPLE * np.sin(r)


@dataclass
class YieldProblem:
    """Monte-Carlo yield estimator over the surrogate response."""

    n_mc: int = 2500
    sampling: SamplingMode = SamplingMode.FIXED_SHIFTED
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _base: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_mc < 1:
            raise ValueError("need at least one Monte-Carlo sample")
        self._rng = np.random.default_rng(self.seed)
        self._base = self._rng.standard_normal((self.n_mc, 2))

    def samples(self, means: np.ndarray) -> np.ndarray:
        """Gaussian samples of the uncertain parameters around ``means``.

        Fixed-shifted mode reuses one standard-normal draw shifted by the
        current means (deterministic); resampled mode draws fresh.
        """
        if self.sampling is SamplingMode.FIXED_SHIFTED:
            base = self._base
        else:
            base = self._rng.standard_normal((self.n_mc, 2))
        return np.asarray(means, dtype=float) + SIGMA * base

    def safe_mask(self, samples: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Which samples meet the requirement at every frequency point.

        Only the ripple varies over the grid, and rounded addition is
        monotone (b <= b' implies fl(a + b) <= fl(a + b')), so the response
        stays below the threshold at every frequency exactly when it does
        at the worst one: ``fl(level + _RIPPLE_MAX) <= THRESHOLD``.  The
        level is rounded as in :func:`surrogate_response`; NaN and infinite
        levels compare as they do on the full grid.
        """
        c1 = 9.0 + 2.0 * (d[0] - 1.0)
        c2 = 5.0 + 2.0 * (d[1] - 1.0)
        rho2 = (samples[:, 0, None] - c1) ** 2 + (samples[:, 1, None] - c2) ** 2
        level = _BASE_LEVEL + _BUMP * np.exp(-rho2 / DECAY)
        return (level + _RIPPLE_MAX <= THRESHOLD)[:, 0]

    def estimate(self, x: np.ndarray) -> float:
        """The estimated yield alone; resampled mode draws a fresh sample."""
        x = np.asarray(x, dtype=float)
        return float(np.mean(self.safe_mask(self.samples(x[:2]), x[2:])))

    def estimate_with_stats(self, x: np.ndarray):
        x = np.asarray(x, dtype=float)
        samples = self.samples(x[:2])
        mask = self.safe_mask(samples, x[2:])
        value = float(np.mean(mask))
        safe_mean = samples[mask].mean(axis=0) if mask.any() else None
        return value, safe_mean


def yield_estimate(yp: YieldProblem, x: np.ndarray) -> float:
    """Fraction of samples inside the safe domain; in [0, 1]."""
    return yp.estimate(x)


def _mean_gradient(value, safe_mean, x) -> np.ndarray:
    if safe_mean is None:
        return np.zeros(2)
    return value * (safe_mean - x[:2]) / SIGMA**2


def yield_gradient_means(yp: YieldProblem, x: np.ndarray) -> np.ndarray:
    """Derivative of the estimated yield with respect to the two means:
    ``Y * (safe_mean_j - mean_j) / SIGMA^2``; zero when no sample is safe.

    In fixed-shifted mode the sample is the one that produces the value at
    ``x``.  In resampled mode this call draws its own sample, so the
    gradient does not come from the sample of any separate value estimate
    (ROADMAP direction 5).
    """
    x = np.asarray(x, dtype=float)
    return _mean_gradient(*yp.estimate_with_stats(x), x)


YIELD_MODES = {
    # mode name -> (sampling, n_mc)
    "nonoise": (SamplingMode.FIXED_SHIFTED, 2500),
    "lownoise": (SamplingMode.RESAMPLED, 2500),
    "highnoise": (SamplingMode.RESAMPLED, 100),
}


def yield_objective(mode: str = "nonoise", seed: int = 0) -> ObjectiveSpec:
    """Yield maximization posed as minimizing the negative yield.

    The mean directions (1 and 2) expose analytic derivatives; the
    deterministic knobs (3 and 4) do not.
    """
    try:
        sampling, n_mc = YIELD_MODES[mode]
    except KeyError:
        raise ValueError(f"unknown yield mode {mode!r}") from None
    yp = YieldProblem(n_mc=n_mc, sampling=sampling, seed=seed)

    if sampling is SamplingMode.FIXED_SHIFTED:
        # the estimate is deterministic, so the value and the derivatives at
        # one point share it: (x bytes, value, safe mean) of the last point
        last = None

        def stats(x):
            nonlocal last
            x = np.asarray(x, dtype=float)
            key = x.tobytes()
            if last is None or last[0] != key:
                last = (key, *yp.estimate_with_stats(x))
            return x, last[1], last[2]

        def value(x):
            return -stats(x)[1]

        def derivative(x):
            x, val, safe_mean = stats(x)
            return -_mean_gradient(val, safe_mean, x)

    else:
        # a fresh draw for the value and for each derivative component; one
        # shared draw (ROADMAP direction 5) needs a digest re-record
        def value(x):
            return -yp.estimate(x)

        def derivative(x):
            return -np.array([yield_gradient_means(yp, x)[axis] for axis in (0, 1)])

    return ObjectiveSpec(
        dimension=4,
        value=value,
        bounds=BOUNDS,
        availability=DerivativeAvailability(first_order=MEAN_DIRECTIONS),
        derivative=derivative,
        name=f"yield-{mode}",
    )
