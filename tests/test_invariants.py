"""Property tests of the solver's invariants over random boxes, starts,
derivative masks, model kinds and budgets.

Every point an oracle sees lies in the box; the run bills at most its
budget and logs one purpose per billed evaluation; each derivative
oracle is called exactly once per billed evaluation when the run reads
its entries and never otherwise; equal seeds give identical runs.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hermiteopt.driver import PURPOSES, ModelKind, SolverConfig, resolve_model, run
from hermiteopt.problem import Bounds
from hermiteopt.testbed import (
    add_noise,
    mask_availability,
    qing,
    rosenbrock,
    second_order_closure,
    trid,
    zakharov,
)

BUILDERS = (rosenbrock, zakharov, trid, qing)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 4))
    problem = draw(st.sampled_from(BUILDERS))(n)
    lower = np.array(draw(st.lists(st.floats(-3.0, 1.0), min_size=n, max_size=n)))
    # widths from 1e-3 to 4, log-uniform; the default initial radius is
    # capped at half the narrowest one, so the initial set always fits
    width = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 0.6), min_size=n, max_size=n)))
    upper = lower + width
    t = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    x0 = lower + t * width  # on a face when t is 0 or 1
    kind = draw(st.sampled_from(list(ModelKind)))
    mask = draw(st.sets(st.integers(1, n)))
    # pairs may be declared without being read: only hermite-ls reads them
    pairs = second_order_closure(mask) if draw(st.booleans()) else ()
    noise = draw(st.sampled_from([0.0, 1e-2]))
    extra = draw(st.integers(0, 40))
    box = Bounds(lower, upper)
    return problem, box, np.clip(x0, lower, upper), kind, mask, pairs, noise, extra


def instrumented(problem, bounds, mask, pairs, noise, seed):
    """The masked spec on ``bounds``, with oracles that check each point
    and count their calls."""
    spec = dataclasses.replace(mask_availability(problem, mask, pairs), bounds=bounds)
    if noise:
        spec = add_noise(spec, noise, seed)
    counts = {"value": 0, "derivative": 0, "second_derivative": 0}

    def counted(name, oracle):
        def call(x):
            assert bounds.contains(x), f"{name} queried outside the box at {x}"
            counts[name] += 1
            return oracle(x)

        return call

    spec = dataclasses.replace(spec, **{name: counted(name, getattr(spec, name)) for name in counts})
    return spec, counts


def signature(result):
    return (
        result.reason,
        result.evaluations,
        result.f_best,
        None if result.x_best is None else result.x_best.tobytes(),
        result.evaluation_log,
        [(row.radius, row.replaced, row.sigma_ratio) for row in result.trace],
    )


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_run_invariants(case, seed):
    problem, bounds, x0, kind, mask, pairs, noise, extra = case
    spec, counts = instrumented(problem, bounds, mask, pairs, noise, seed)
    config = SolverConfig(kind=kind)
    config.max_evaluations = resolve_model(spec, config)[1] + extra
    result = run(spec, x0, config)

    assert result.error is None
    assert result.evaluations <= config.max_evaluations
    assert len(result.evaluation_log) == result.evaluations == counts["value"]
    assert {purpose for purpose, _ in result.evaluation_log} <= set(PURPOSES)
    assert counts["derivative"] == (result.evaluations if mask else 0)
    reads_pairs = pairs and kind is ModelKind.HERMITE_LS
    assert counts["second_derivative"] == (result.evaluations if reads_pairs else 0)
    assert result.x_best is not None and bounds.contains(result.x_best)
    size = resolve_model(spec, config)[1]
    assert all(row.replaced is None or 0 <= row.replaced < size for row in result.trace)

    again, _ = instrumented(problem, bounds, mask, pairs, noise, seed)
    assert signature(run(again, x0, config)) == signature(result)
