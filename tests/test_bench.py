import csv
import hashlib

import numpy as np
import pytest

from hermiteopt.bench import (
    ExperimentPlan,
    RESULT_COLUMNS,
    SUMMARY_COLUMNS,
    expand_plan,
    run_plan,
    summarize,
    trace_export,
)
from hermiteopt.cli import main
from hermiteopt.driver import SolverConfig, run
from hermiteopt.models import HERMITE_KINDS, ModelKind
from hermiteopt.testbed import get_problem, mask_availability


def small_plan(**overrides):
    base = dict(
        problems=("sphere2",),
        kinds=(ModelKind.BOBYQA, ModelKind.HERMITE_LS),
        kd_values=(1,),
        seeds=(0,),
        budget=60,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlanExpansion:
    def test_unknown_problem_fails_before_running(self, tmp_path):
        plan = small_plan(problems=("sphere2", "missing"))
        with pytest.raises(ValueError, match="unknown problem"):
            expand_plan(plan)
        with pytest.raises(ValueError, match="unknown problem"):
            run_plan(plan, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_mask_enumeration_small(self):
        plan = small_plan(problems=("sphere3",), kinds=(ModelKind.HERMITE_LS,), kd_values=(2,))
        cases = expand_plan(plan)
        masks = [c.mask for c in cases]
        assert masks == [(1, 2), (1, 3), (2, 3)]

    def test_mask_sampling_large(self):
        plan = small_plan(problems=("sphere10",), kinds=(ModelKind.HERMITE_LS,), kd_values=(5,))
        cases = expand_plan(plan)
        assert len(cases) == 3
        assert len({c.mask for c in cases}) == 3
        again = expand_plan(plan)
        assert [c.mask for c in cases] == [c.mask for c in again]

    def test_derivative_free_kinds_get_single_case(self):
        plan = small_plan(kinds=(ModelKind.BOBYQA,), kd_values=(1, 2))
        cases = expand_plan(plan)
        assert len(cases) == 1
        assert cases[0].kd == 0 and cases[0].mask == ()

    def test_yield_cases_fixed_availability(self):
        plan = small_plan(problems=("yield-nonoise",), kinds=(ModelKind.HERMITE_LS,))
        cases = expand_plan(plan)
        assert len(cases) == 1
        assert cases[0].mask == (1, 2) and cases[0].kd == 2

    def test_kd_is_the_mask_length_and_keeps_the_requested_counts(self):
        kinds = tuple(ModelKind)
        problems = ("sphere2", "rosenbrock5", "zakharov10", "trid4", "yield-nonoise")
        cases = expand_plan(small_plan(problems=problems, kinds=kinds, kd_values=(0, 1, 2, 3, 9)))
        assert all(c.kd == len(c.mask) for c in cases)
        for name, n in zip(problems[:4], (2, 5, 10, 4)):
            hermite = {c.kd for c in cases if c.problem == name and c.kind in HERMITE_KINDS}
            assert hermite == {kd for kd in (1, 2, 3, 9) if kd <= n}
        # cases still compare by their fields
        assert expand_plan(small_plan(problems=problems, kinds=kinds, kd_values=(0, 1, 2, 3, 9))) == cases


class TestRunPlan:
    def test_rows_and_ordering(self, tmp_path):
        # one bobyqa run plus one hermite run per single-direction mask
        out = tmp_path / "results.csv"
        rows = run_plan(small_plan(), out)
        assert len(rows) == 3
        with out.open() as fh:
            reader = csv.DictReader(fh)
            assert tuple(reader.fieldnames) == RESULT_COLUMNS
            file_rows = list(reader)
        assert [r["kind"] for r in file_rows] == ["bobyqa", "hermite-ls", "hermite-ls"]
        assert [r["mask"] for r in file_rows] == ["", "1", "2"]
        for r in file_rows:
            assert r["problem"] == "sphere2"
            assert r["success"] == "1"
            assert int(r["evaluations"]) <= 60

    def test_empty_plan_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        rows = run_plan(small_plan(problems=()), out)
        assert rows == []
        assert out.read_text() == ",".join(RESULT_COLUMNS) + "\n"

    def test_byte_identical_reruns(self, tmp_path):
        plan = small_plan(problems=("rosenbrock2",), noise="low", seeds=(0, 1), budget=80)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_plan(plan, a)
        run_plan(plan, b)
        assert a.read_bytes() == b.read_bytes()

    def test_writes_the_csv_alone(self, tmp_path):
        out = tmp_path / "res.csv"
        rows = run_plan(small_plan(), out)
        assert rows and list(tmp_path.iterdir()) == [out]

    def test_hermite_beats_bobyqa_on_partial_rosenbrock(self, tmp_path):
        plan = small_plan(problems=("rosenbrock2",), budget=500)
        rows = run_plan(plan, tmp_path / "res.csv")
        bobyqa = next(r for r in rows if r["kind"] == "bobyqa")
        hermite = next(r for r in rows if r["kind"] == "hermite-ls" and r["mask"] == "2")
        assert hermite["evaluations"] < bobyqa["evaluations"]
        assert hermite["success"] == 1 and bobyqa["success"] == 1

    def test_workers_match_serial(self, tmp_path):
        plan = small_plan(problems=("sphere2", "booth2"), seeds=(0, 1))
        a = tmp_path / "serial.csv"
        b = tmp_path / "parallel.csv"
        run_plan(plan, a, workers=1)
        run_plan(plan, b, workers=4)
        assert a.read_bytes() == b.read_bytes()


class TestSummarize:
    def test_single_run_group_mean_equals_count(self, tmp_path):
        res = tmp_path / "res.csv"
        rows_in = run_plan(small_plan(kinds=(ModelKind.BOBYQA,)), res)
        rows = summarize(res, tmp_path / "sum.csv")
        assert len(rows) == 1
        assert rows[0]["mean_evaluations"] == rows_in[0]["evaluations"]
        assert rows[0]["runs"] == 1

    def test_group_means_and_delta(self, tmp_path):
        res = tmp_path / "res.csv"
        res.write_text(
            "problem,n,kind,kd,mask,seed,noise,evaluations,f_final,x_gap,success\n"
            "p,2,bobyqa,0,,0,none,40,0,0,1\n"
            "p,2,bobyqa,0,,1,none,60,0,0,1\n"
            "p,2,hermite-ls,1,1,0,none,33,0,0,1\n"
            "p,2,hermite-ls,1,2,0,none,33,0,0,0\n"
        )
        out = tmp_path / "sum.csv"
        rows = summarize(res, out)
        by_key = {(r["n"], r["kind"], r["kd"]): r for r in rows}
        base = by_key[(2, "bobyqa", 0)]
        assert base["mean_evaluations"] == 50.0
        assert base["runs"] == 2
        hls = by_key[(2, "hermite-ls", 1)]
        assert hls["mean_evaluations"] == 33.0
        assert hls["delta_vs_bobyqa_pct"] == pytest.approx(-34.0)
        assert hls["success_rate"] == pytest.approx(0.5)

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="lacks the expected result columns"):
            summarize(bad, tmp_path / "out.csv")
        worse = tmp_path / "worse.csv"
        worse.write_text(
            "problem,n,kind,kd,mask,seed,noise,evaluations,f_final,x_gap,success\n"
            "p,x,bobyqa,0,,0,none,40,0,0,1\n"
        )
        with pytest.raises(ValueError, match="bad numeric field in"):
            summarize(worse, tmp_path / "out.csv")
        header = ",".join(RESULT_COLUMNS)
        for name, row in (("short.csv", "p,2"), ("long.csv", "p,2,bobyqa,0,,0,none,40,0,0,1,extra")):
            ragged = tmp_path / name
            ragged.write_text(f"{header}\n{row}\n")
            with pytest.raises(ValueError, match="row whose field count differs from its header"):
                summarize(ragged, tmp_path / "out.csv")

    def test_summary_matches_independent_recomputation(self, tmp_path):
        res = tmp_path / "res.csv"
        plan = small_plan(problems=("sphere2", "matyas2"), seeds=(0, 1, 2))
        run_plan(plan, res)
        out = tmp_path / "sum.csv"
        rows = summarize(res, out)
        with res.open() as fh:
            raw = list(csv.DictReader(fh))
        for row in rows:
            members = [
                int(r["evaluations"])
                for r in raw
                if r["problem"] == row["problem"]
                and r["noise"] == row["noise"]
                and int(r["n"]) == row["n"]
                and r["kind"] == row["kind"]
                and int(r["kd"]) == row["kd"]
            ]
            assert row["mean_evaluations"] == pytest.approx(np.mean(members))
            assert row["runs"] == len(members)

    def test_groups_and_baselines_are_per_problem_and_noise(self, tmp_path):
        # a yield case adds no plan noise, so its rows say none; each
        # problem's groups compare with that problem's bobyqa group
        res = tmp_path / "res.csv"
        argv = ["run", "--problems", "yield-nonoise", "trid4", "--kinds", "bobyqa", "hermite-ls"]
        assert main(argv + ["--noise", "low", "--budget", "100", "--out", str(res)]) == 0
        with res.open() as fh:
            raw = list(csv.DictReader(fh))
        assert {(r["problem"], r["noise"]) for r in raw} == {("yield-nonoise", "none"), ("trid4", "low")}
        rows = summarize(res, tmp_path / "sum.csv")
        assert [(r["problem"], r["noise"], r["kind"], r["kd"], r["runs"], r["mean_evaluations"]) for r in rows] == [
            ("trid4", "low", "bobyqa", 0, 1, 96.0),
            ("trid4", "low", "hermite-ls", 1, 4, 84.5),
            ("yield-nonoise", "none", "bobyqa", 2, 1, 67.0),
            ("yield-nonoise", "none", "hermite-ls", 2, 1, 49.0),
        ]
        deltas = [r["delta_vs_bobyqa_pct"] for r in rows]
        assert deltas == [0.0, pytest.approx(-11.979, abs=1e-3), 0.0, pytest.approx(-26.866, abs=1e-3)]
        with (tmp_path / "sum.csv").open() as fh:
            assert next(csv.reader(fh)) == list(SUMMARY_COLUMNS)


class TestTraceExport:
    def run_once(self, diagnostic=False):
        problem = get_problem("rosenbrock2")
        spec = mask_availability(problem, {2})
        cfg = SolverConfig(
            kind=ModelKind.HERMITE_LS,
            max_evaluations=60,
            model_error_diagnostic=diagnostic,
        )
        return run(spec, problem.x_start, cfg)

    def test_schema_and_rows(self, tmp_path):
        result = self.run_once()
        path = tmp_path / "trace.csv"
        trace_export(result, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(result.trace)
        assert set(rows[0]) == {
            "iteration", "evaluations", "radius", "f_best", "accepted", "model_error",
            "ratio", "step_norm", "predicted_decrease", "repairs", "sigma_ratio", "replaced",
            "lam", "lam_bound",
        }
        assert all(r["model_error"] == "" for r in rows)
        for r, row in zip(rows, result.trace):
            assert float(r["ratio"]) == row.ratio and float(r["step_norm"]) > 0
            assert float(r["predicted_decrease"]) > 0 and int(r["repairs"]) >= 0
            assert float(r["sigma_ratio"]) == row.sigma_ratio and 0 < row.sigma_ratio <= 1
            if row.replaced is None:
                assert r["replaced"] == ""
            else:
                assert int(r["replaced"]) == row.replaced and r["accepted"] == "1"
            assert (r["lam"] == "") == np.isnan(row.lam)
            assert (r["lam_bound"] == "") == np.isnan(row.lam_bound)
        # accepted trials replace a point; rejected ones leave an empty cell
        assert any(r["replaced"] != "" for r in rows) and any(r["accepted"] == "0" for r in rows)
        assert all(r["replaced"] == "" for r in rows if r["accepted"] == "0")
        # this run tests poisedness often and estimates lambda at least once
        assert any(r["lam_bound"] != "" for r in rows) and any(r["lam"] != "" for r in rows)

    def test_diagnostic_column_populated(self, tmp_path):
        result = self.run_once(diagnostic=True)
        path = tmp_path / "trace.csv"
        trace_export(result, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["model_error"] != "" for r in rows)

    def test_re_export_byte_identical(self, tmp_path):
        result = self.run_once()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        trace_export(result, a)
        trace_export(result, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_trace_rejected(self, tmp_path):
        problem = get_problem("sphere2")
        spec = mask_availability(problem, set())
        result = run(spec, problem.x_start, SolverConfig(max_evaluations=5))
        with pytest.raises(ValueError):
            trace_export(result, tmp_path / "x.csv")


class TestCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(
            [
                "run",
                "--problems", "sphere2",
                "--kinds", "bobyqa", "hermite-ls",
                "--kd", "1",
                "--budget", "60",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        summary = tmp_path / "sum.csv"
        assert main(["summarize", str(out), "--out", str(summary)]) == 0
        assert summary.exists()

    def test_trace_subcommand(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "trace",
                "--problems", "rosenbrock2",
                "--kinds", "hermite-ls",
                "--mask", "2",
                "--budget", "60",
                "--diagnostic",
                "--out", str(out),
            ]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["model_error"] != ""

    def test_trace_diagnostic_runs_at_n10(self, tmp_path):
        out = tmp_path / "trace.csv"
        argv = ["trace", "--problems", "zakharov10", "--kinds", "hermite-ls", "--kd", "5"]
        # rank repairs take the first 200 evaluations (ROADMAP direction 2)
        assert main(argv + ["--budget", "300", "--diagnostic", "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(np.isfinite(float(r["model_error"])) for r in rows)

    @pytest.mark.parametrize(
        "flag, values",
        [
            ("--problems", ["rosenbrock2", "sphere2"]),
            ("--kinds", ["hermite-ls", "bobyqa"]),
            ("--kd", ["1", "2"]),
            ("--seed", ["0", "1"]),
        ],
    )
    def test_trace_rejects_more_than_one_value(self, tmp_path, capsys, flag, values):
        argv = {"--problems": ["rosenbrock2"], "--kinds": ["hermite-ls"], "--kd": ["1"], "--seed": ["0"]}
        argv[flag] = values
        out = tmp_path / "trace.csv"
        args = ["trace", *(x for k, v in argv.items() for x in (k, *v)), "--budget", "40", "--out", str(out)]
        assert main(args) == 1
        assert f"{flag} takes one value" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_trace_error_names_the_reason_and_purposes(self, tmp_path, capsys):
        # every evaluation after the initial set is a rank repair (ROADMAP direction 2)
        out = tmp_path / "trace.csv"
        argv = ["trace", "--problems", "zakharov10", "--kinds", "hermite-ls", "--kd", "5"]
        assert main(argv + ["--budget", "200", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run produced an empty trace")
        assert "budget-exhausted" in err and "200 evaluations" in err
        assert "(init 24, trial 0, geometry 0, repair 176)" in err
        assert not out.exists()

    def test_trace_mask_on_a_yield_case_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        argv = ["trace", "--problems", "yield-nonoise", "--kinds", "hermite-ls", "--mask", "1"]
        assert main(argv + ["--budget", "40", "--out", str(out)]) == 1
        assert "yield-nonoise runs with its fixed mask 1,2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bobyqa", "full-interp"])
    def test_trace_mask_on_a_derivative_free_kind_is_an_error(self, tmp_path, capsys, kind):
        # the run would call the derivative oracle and never read it
        out = tmp_path / "trace.csv"
        argv = ["trace", "--problems", "rosenbrock2", "--kinds", kind, "--mask", "2"]
        assert main(argv + ["--budget", "100", "--out", str(out)]) == 1
        assert f"{kind} runs with no derivative direction; --mask does not apply" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_kind_defaults_to_one(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["trace", "--problems", "sphere2", "--budget", "30", "--out", str(out)]) == 0
        assert out.exists()

    def test_json_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problems", "sphere2", "--budget", "30", "--out", str(out), "--json"])
        assert exc.value.code == 2
        assert "--json" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_kind_lists_the_four(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["run", "--problems", "sphere2", "--kinds", "min-frob", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(kind.value in err for kind in ModelKind)
        assert not out.exists()

    def test_unknown_problem_exit_code(self, tmp_path, capsys):
        code = main(
            ["run", "--problems", "missing", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_input_exit_code_and_message(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        no_columns = tmp_path / "no_columns.csv"
        no_columns.write_text("a,b\n1,2\n")
        cases = [
            (["summarize", str(missing)], f"[Errno 2] No such file or directory: '{missing}'"),
            (["summarize", str(no_columns)], f"{no_columns} lacks the expected result columns"),
            (["trace", "--problems", "missing"], "unknown problem 'missing'"),
        ]
        for argv, message in cases:
            out = tmp_path / "out.csv"
            assert main([*argv, "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert not out.exists()


class TestPinnedDigests:
    """SHA-256 of output CSVs: two results CSVs with weighted rows, which
    no perfbench workload runs, the README's `run` example and two
    traces.  The solver's results must not move by a bit; the digests
    depend on the numpy and BLAS build, as perfbench's do."""

    PLANS = [
        (
            "--problems rosenbrock2 zakharov3 yield-lownoise --kinds hermite-ls hermite-bobyqa "
            "--kd 1 2 --noise low --seed 0 --budget 200 --weighting",
            "f9a6c800413f382a04a4b09f4e63e2626e82bb5c4c1d320124da9437909f877f",
        ),
        (
            "--problems rosenbrock2 zakharov3 trid4 --kinds hermite-ls "
            "--kd 1 2 --seed 0 --budget 200 --second-order --weighting",
            "b57d7451ca7a7f35ab293e02156d828e586be081059aa1bdae876488e7b3f402",
        ),
    ]

    @pytest.mark.parametrize("flags, digest", PLANS)
    def test_weighted_plan_digest(self, tmp_path, flags, digest):
        out = tmp_path / "results.csv"
        assert main(["run", *flags.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "run --problems rosenbrock2 sphere5 --kinds bobyqa hermite-ls "
                "--kd 1 2 --noise none --seed 0 1 2 --budget 500",
                "1d7dca837c6b5dbefdf7dbf496563b4ddc9e4635ab12898260fa58f41d21b4b2",
            ),
            (
                "trace --problems rosenbrock2 --kinds hermite-ls --kd 1 --seed 0 --budget 100",
                "8041da7d78eacaaabf33a1f06cb50f507a5c242e6c205fb854a6db2d8a64d79c",
            ),
            (
                "trace --problems yield-nonoise --kinds bobyqa --seed 0 --budget 100",
                "c087673d826f7020f44c38cfe5d6d20024cb802b69fde4c795f3fd67c6a3b032",
            ),
        ],
    )
    def test_unweighted_output_digest(self, tmp_path, argv, digest):
        out = tmp_path / "out.csv"
        assert main([*argv.split(), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
