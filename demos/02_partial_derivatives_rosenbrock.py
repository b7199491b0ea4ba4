# The headline comparison: minimize the 2-d Rosenbrock function when only
# the second partial derivative is available.  The Hermite least-squares
# models exploit that information and need far fewer objective calls than
# derivative-free interpolation.
import numpy as np

import hermiteopt as ho
from hermiteopt.models import ModelKind

problem = ho.get_problem("rosenbrock2")
spec = ho.mask_availability(problem, {2})

print(f"start {problem.x_start} with f = {problem.value(problem.x_start):.1f}; "
      f"optimum {problem.x_opt}\n")
print(f"{'kind':16s} {'evaluations':>11s} {'final f':>10s} {'|x - x*|':>10s}")
for kind in (ModelKind.BOBYQA, ModelKind.FULL_INTERP, ModelKind.HERMITE_LS,
             ModelKind.HERMITE_BOBYQA):
    result = ho.run(spec, problem.x_start,
                    ho.SolverConfig(kind=kind, max_evaluations=500))
    gap = np.linalg.norm(result.x_best - problem.x_opt)
    print(f"{kind.value:16s} {result.evaluations:11d} {result.f_best:10.1e} {gap:10.1e}")

# the per-iteration model error against the local second-order expansion
# shows why: the derivative-enriched model locks on much earlier
print("\nmodel error vs local quadratic expansion (hermite l.s.):")
cfg = ho.SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=200)
result = ho.run(spec, problem.x_start, cfg)
# each trace row keeps its model, so the error is computed after the run
for row in result.trace[:12]:
    error = ho.model_error_diagnostic(row.model, problem)
    print(f"  iteration {row.iteration:3d}: error {error:.2e}")
