# When second derivatives are available for the known directions, the
# Hermite least-squares system gains one constant row per pair and point.
# On Rosenbrock this buys a modest but consistent reduction in objective
# calls, mirroring the first/second-order comparison for each mask.
import numpy as np

import hermiteopt as ho
from hermiteopt.models import ModelKind
from hermiteopt.testbed import second_order_closure

problem = ho.get_problem("rosenbrock2")
starts = [np.array(s) for s in ([1.2, 2.0], [0.5, 1.5], [-1.0, 1.0])]

print(f"{'mask':8s} {'first-order':>12s} {'with 2nd order':>15s}")
for mask in ((1,), (2,), (1, 2)):
    first = second = 0
    for x0 in starts:
        r1 = ho.run(
            ho.mask_availability(problem, set(mask)),
            x0,
            ho.SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=500, weighting=True),
        )
        r2 = ho.run(
            ho.mask_availability(problem, set(mask), second_order_closure(mask)),
            x0,
            ho.SolverConfig(kind=ModelKind.HERMITE_LS, max_evaluations=500, weighting=True),
        )
        first += r1.evaluations
        second += r2.evaluations
    print(f"{str(set(mask)):8s} {first:12d} {second:15d}")
print("\n(counts summed over three starts; distance weighting on)")
