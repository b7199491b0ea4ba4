"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

The digest tests run whole workload passes and take about a minute.
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hermiteopt import bench, driver
from hermiteopt.bench import registry
from hermiteopt.models import ModelKind

from measure import (
    END_TO_END,
    METHOD_SPANS,
    PER_LAYER,
    TRACED_SPANS,
    check_run,
    format_row,
    results_digest,
    run_pass,
)
from probes import Recorder, Span, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _patched_attributes():
    owners = [(driver, attr) for attr in TRACED_SPANS]
    owners += [(owner, attr) for owner, attr, _ in METHOD_SPANS]
    owners.append((bench, "run"))
    return {(owner, attr): vars(owner)[attr] for owner, attr in owners}


def test_recorder_restores_every_wrapper_after_an_error():
    originals = _patched_attributes()
    with pytest.raises(RuntimeError):
        with Recorder(spans=True) as rec:
            for attr, name in TRACED_SPANS.items():
                rec.patch(driver, attr, name)
            for owner, attr, name in METHOD_SPANS:
                rec.patch(owner, attr, name)
            rec.substitute(bench, "run", lambda *args: None)
            assert all(vars(owner)[attr] is not fn for (owner, attr), fn in originals.items())
            raise RuntimeError
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def test_run_pass_restores_every_wrapper():
    originals = _patched_attributes()
    jobs = WORKLOADS["lowdim"](0)[:2]
    for traced in (False, True):
        run_pass(jobs, traced)
        assert all(vars(owner)[attr] is fn for (owner, attr), fn in originals.items())


def test_self_time_subtracts_children_on_a_span_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0, None),
        Span(1, "a", 1.0, 4.0, 0, 0, None),
        Span(2, "c", 2.0, 3.0, 1, 0, None),
        Span(3, "b", 5.0, 9.0, 0, 0, None),
        Span(4, "a", 9.0, 9.5, 0, 0, None),
        Span(5, "root", 20.0, 21.0, None, 1, None),
    ]
    totals = self_times(spans)
    assert totals["root"] == (2, pytest.approx((10.0 - 3.0 - 4.0 - 0.5) + 1.0))
    assert totals["a"] == (2, pytest.approx((3.0 - 1.0) + 0.5))
    assert totals["b"] == (1, pytest.approx(4.0))
    assert totals["c"] == (1, pytest.approx(1.0))


def test_self_time_keeps_runs_apart_when_span_ids_repeat():
    # each pass numbers its spans from zero; runs ids differ between passes
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0, None),
        Span(1, "leaf", 1.0, 2.0, 0, 0, None),
        Span(0, "root", 20.0, 30.0, None, 1, None),
        Span(1, "leaf", 21.0, 29.0, 0, 1, None),
    ]
    totals = self_times(spans)
    assert totals["root"] == (2, pytest.approx(9.0 + 2.0))
    assert totals["leaf"] == (2, pytest.approx(1.0 + 8.0))


def test_wrapper_nests_spans_and_records_errors():
    rec = Recorder(spans=True)

    def fail():
        raise ValueError("boom")

    inner = rec.wrap("inner", fail)
    outer = rec.wrap("outer", lambda: inner())
    with pytest.raises(ValueError):
        outer()
    inner_span, outer_span = rec.spans
    assert (inner_span.name, inner_span.parent, inner_span.error) == ("inner", outer_span.id, "ValueError")
    assert (outer_span.parent, outer_span.error) == (None, "ValueError")
    durations, errors = rec.take()
    assert len(durations["inner"]) == len(durations["outer"]) == 1
    assert errors == {"inner": 1, "outer": 1}
    assert rec.take()[1] == {}


def test_traced_and_untraced_passes_give_identical_rows():
    # first-order noisy runs of every kind, second-order noiseless ones
    # and a Monte-Carlo yield run
    jobs = WORKLOADS["lowdim"](3)
    second_order = [j for j in jobs if j.plan.second_order]
    jobs = jobs[:6] + second_order[-3:] + jobs[-1:]
    untraced = run_pass(jobs, traced=False)
    traced = run_pass(jobs, traced=True)
    assert [format_row(r.row) for r in traced.runs] == [format_row(r.row) for r in untraced.runs]
    assert not [r.problems for r in untraced.runs + traced.runs if r.problems]
    assert traced.spans and not untraced.spans


def test_checks_flag_each_kind_of_bad_result():
    # a noiseless analytic run
    job = [j for j in WORKLOADS["lowdim"](0) if j.plan.second_order][-1]
    entry = registry()[job.case.problem]
    spec = entry.make_spec(job.case.mask, job.plan.noise, job.case.seed, job.plan.second_order)
    good = SimpleNamespace(
        evaluations=10, x_best=entry.x_start, f_best=entry.reference_value(entry.x_start)
    )
    assert check_run(job, entry, spec, good, evaluate_returns=10) == []
    bad = SimpleNamespace(
        evaluations=job.plan.budget + 1,
        x_best=spec.bounds.upper + 1.0,
        f_best=0.0,
    )
    assert len(check_run(job, entry, spec, bad, evaluate_returns=3)) == 3
    wrong_value = SimpleNamespace(evaluations=10, x_best=entry.x_start, f_best=good.f_best + 1e-9)
    assert len(check_run(job, entry, spec, wrong_value, evaluate_returns=10)) == 1


def test_benchmark_json_names_what_the_harness_prints():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == PER_LAYER


def test_digest_is_the_sha256_of_the_results_csv(tmp_path):
    plan = bench.ExperimentPlan(
        problems=("sphere2",), kinds=(ModelKind.HERMITE_LS,), seeds=(0,), budget=40
    )
    rows = bench.run_plan(plan, tmp_path / "out.csv")
    assert results_digest(rows) == hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_reproduces_the_recorded_digest(workload):
    recorded = json.loads((HERE / "digests.json").read_text())[workload]["0"]
    rows = [r.row for r in run_pass(WORKLOADS[workload](0), traced=False).runs]
    assert results_digest(rows) == recorded


def test_another_seed_changes_the_lowdim_digest():
    recorded = json.loads((HERE / "digests.json").read_text())["lowdim"]
    rows = [r.row for r in run_pass(WORKLOADS["lowdim"](1), traced=False).runs]
    assert results_digest(rows) == recorded["1"] != recorded["0"]


def test_highdim_cases_do_not_depend_on_the_seed():
    assert WORKLOADS["highdim"](0) == WORKLOADS["highdim"](7)
    assert [j.case.mask for j in WORKLOADS["highdim"](0)] == [(2, 5, 9), (2, 3, 4, 7, 8)]
    assert all(j.case.seed == 0 for j in WORKLOADS["highdim"](5))
