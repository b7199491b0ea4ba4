"""Set-up probe: import the solver, build one workload's specs, print "ready".

`run.py` starts this script several times and times each start until the
"ready" line; the median is the workload's setup_s.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hermiteopt.bench import registry  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main(workload: str, seed: int) -> None:
    cases = registry()
    for job in WORKLOADS[workload](seed):
        cases[job.case.problem].make_spec(
            job.case.mask, job.plan.noise, job.case.seed, job.plan.second_order
        )
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
