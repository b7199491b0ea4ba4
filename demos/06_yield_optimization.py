# Yield optimization: maximize the probability that a design meets a
# frequency-response requirement under Gaussian manufacturing spread.
# The derivative of the Monte-Carlo yield with respect to the two
# uncertain means has a closed form over the sample, while the two
# deterministic knobs have no derivative: exactly the mixed setting the
# Hermite model kinds target.  In "nonoise" (fixed-shifted sampling) the
# value and the derivatives come free from one shared sample; the
# resampled "lownoise" and "highnoise" modes still draw a fresh sample
# for the value and for each derivative (ROADMAP direction 4).
import numpy as np

import hermiteopt as ho
from hermiteopt.models import ModelKind
from hermiteopt.yields import START_POINT, YieldProblem, yield_estimate, yield_objective

yp = YieldProblem(n_mc=2500, seed=0)
print(f"start {START_POINT} with estimated yield {yield_estimate(yp, START_POINT):.3f}\n")

for mode in ("nonoise", "lownoise", "highnoise"):
    print(f"--- {mode} ---")
    for kind in (ModelKind.BOBYQA, ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA):
        spec = yield_objective(mode, seed=0)
        result = ho.run(
            spec,
            START_POINT,
            ho.SolverConfig(kind=kind, max_evaluations=150, min_radius=1e-3),
        )
        # report the deterministic estimator at the returned design
        clean = yield_objective("nonoise", seed=0)
        final = -clean.value(result.x_best)
        print(
            f"  {kind.value:16s} calls={result.evaluations:4d} "
            f"yield={final:.3f} design={np.round(result.x_best, 2)}"
        )
