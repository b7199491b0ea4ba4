"""The benchmark's fixed workloads, each a list of solver runs.

Every run is one `hermiteopt.bench.PlanCase` of an `ExperimentPlan`, so a
workload is the same grid `hermiteopt run` would execute.  The workload
seed chooses the noise draws and the Monte-Carlo seeds of `lowdim`;
`highdim` runs the same two cases for every seed.

The Monte-Carlo yield runs are part of `lowdim` rather than a workload
of their own.  Run times on a shared 2-vCPU host drift by 15-25% over
minutes whatever the run length, so every workload risks a quartile
spread past its bound; fewer workloads leave room for longer runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from hermiteopt.bench import ExperimentPlan, PlanCase, expand_plan
from hermiteopt.models import ModelKind

ALL_KINDS = (
    ModelKind.FULL_INTERP,
    ModelKind.BOBYQA,
    ModelKind.HERMITE_LS,
    ModelKind.HERMITE_BOBYQA,
)


@dataclass(frozen=True)
class Job:
    """One solver run: a case of a plan."""

    case: PlanCase
    plan: ExperimentPlan


def _jobs(plan: ExperimentPlan, cases=None) -> list[Job]:
    return [Job(case, plan) for case in (cases or expand_plan(plan))]


# The highdim masks are the first ones expand_plan draws for seed 0,
# whatever the workload seed.  The number of lambda estimates a run needs
# depends on its mask: over the first draws for seeds 0-6 the two-run
# pass took 12.0-17.9 s on a 2-vCPU Xeon VM, a quartile spread of about
# 30% of the median from the inputs alone, wider than the largest bound
# a timing may have.
HIGHDIM_MASK_SEED = 0


def highdim(seed: int) -> list[Job]:
    # two n=10 cases where poisedness (lambda estimates on 10k-point
    # region samples) does most of the work
    jobs = []
    for problem, kind, kd in (
        ("rosenbrock10", ModelKind.HERMITE_LS, 3),
        ("zakharov10", ModelKind.HERMITE_BOBYQA, 5),
    ):
        plan = ExperimentPlan(
            problems=(problem,),
            kinds=(kind,),
            kd_values=(kd,),
            seeds=(HIGHDIM_MASK_SEED,),
            budget=500,
        )
        jobs += _jobs(plan, expand_plan(plan)[:1])
    return jobs


def lowdim(seed: int) -> list[Job]:
    # many short n<=5 runs: subproblem, driver and training-set
    # bookkeeping matter, poisedness works on small tensor grids.  The
    # yield runs are where the oracle layer dominates: every billed
    # evaluation runs one Monte-Carlo estimate for the value and one per
    # known direction.
    first_order = ExperimentPlan(
        problems=("rosenbrock2", "beale2", "zakharov3", "trid4", "rotellipsoid4", "qing5"),
        kinds=ALL_KINDS,
        kd_values=(1,),
        noise="low",
        seeds=(seed,),
        budget=300,
    )
    second_order = ExperimentPlan(
        problems=("rosenbrock2", "zakharov3", "trid4"),
        kinds=(ModelKind.HERMITE_LS,),
        kd_values=(1, 2),
        seeds=(seed,),
        budget=300,
        second_order=True,
    )
    monte_carlo = ExperimentPlan(
        problems=("yield-nonoise", "yield-lownoise", "yield-highnoise"),
        kinds=(ModelKind.BOBYQA, ModelKind.HERMITE_LS, ModelKind.HERMITE_BOBYQA),
        seeds=tuple(range(seed, seed + 4)),
        budget=200,
    )
    return _jobs(first_order) + _jobs(second_order) + _jobs(monte_carlo)


WORKLOADS = {"highdim": highdim, "lowdim": lowdim}
