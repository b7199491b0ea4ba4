"""Command-line harness: run benchmark plans, summarize results, export traces."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bench import ExperimentPlan, PlanCase, registry, run_inputs, run_plan, summarize, trace_export
from .driver import run
from .exceptions import HermiteOptError
from .models import ModelKind
from .testbed import NOISE_AMPLITUDES

ALL_KINDS = [k.value for k in ModelKind]


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problems", nargs="+", required=True, help="registry names")
    parser.add_argument(
        "--kinds", nargs="+", default=ALL_KINDS, help=f"model kinds ({', '.join(ALL_KINDS)})"
    )
    parser.add_argument(
        "--kd", nargs="+", type=int, default=[1], help="numbers of known derivative directions"
    )
    parser.add_argument("--noise", choices=sorted(NOISE_AMPLITUDES), default="none")
    parser.add_argument("--seed", nargs="+", type=int, default=[0])
    parser.add_argument("--budget", type=int, default=500)
    parser.add_argument("--weighting", action="store_true", help="enable distance weighting")
    parser.add_argument("--second-order", action="store_true", help="use second-order rows")
    parser.add_argument("--out", required=True, help="output CSV path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermiteopt",
        description="benchmark harness for trust-region optimization with partial derivatives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a solver x problem x mask grid")
    _add_run_flags(p_run)
    p_run.add_argument("--workers", type=int, default=1)

    p_sum = sub.add_parser("summarize", help="group means from a results CSV")
    p_sum.add_argument("results", help="results CSV produced by `run`")
    p_sum.add_argument("--out", required=True)

    p_trace = sub.add_parser("trace", help="export the per-iteration trace of one run")
    _add_run_flags(p_trace)
    # one run: each grid flag takes a single value, the kind defaulting to the first
    p_trace.set_defaults(kinds=ALL_KINDS[:1])
    p_trace.add_argument(
        "--mask",
        default=None,
        help="explicit comma-separated derivative directions (overrides --kd)",
    )
    p_trace.add_argument(
        "--diagnostic",
        action="store_true",
        help="record the model-error diagnostic when the problem is analytic",
    )
    return parser


def _plan(args) -> ExperimentPlan:
    return ExperimentPlan(
        problems=tuple(args.problems),
        kinds=tuple(ModelKind.parse(k) for k in args.kinds),
        kd_values=tuple(args.kd),
        noise=args.noise,
        seeds=tuple(args.seed),
        budget=args.budget,
        weighting=args.weighting,
        second_order=args.second_order,
    )


def _cmd_run(args) -> int:
    rows = run_plan(_plan(args), args.out, workers=args.workers)
    print(f"wrote {len(rows)} result rows to {args.out}")
    return 0


def _cmd_summarize(args) -> int:
    rows = summarize(args.results, args.out)
    print(f"wrote {len(rows)} summary rows to {args.out}")
    return 0


def _cmd_trace(args) -> int:
    for flag in ("problems", "kinds", "kd", "seed"):
        if len(getattr(args, flag)) > 1:
            raise ValueError(f"trace exports one run: --{flag} takes one value")
    entry = registry().get(args.problems[0])
    if entry is None:
        raise ValueError(f"unknown problem {args.problems[0]!r}")
    plan = _plan(args)
    mask = entry.fixed_mask(plan.kinds[0])
    if args.mask:
        if entry.mask is not None:
            fixed = ",".join(map(str, entry.mask))
            raise ValueError(f"{entry.name} runs with its fixed mask {fixed}; --mask does not apply")
        if mask is not None:
            raise ValueError(f"{plan.kinds[0].value} runs with no derivative direction; --mask does not apply")
        mask = tuple(int(t) for t in args.mask.split(","))
    elif mask is None:
        mask = tuple(range(1, args.kd[0] + 1))
    case = PlanCase(problem=entry.name, kind=plan.kinds[0], mask=mask, seed=args.seed[0])
    spec, config = run_inputs(case, plan, entry)
    config = replace(config, model_error_diagnostic=args.diagnostic)
    result = run(spec, entry.x_start, config)
    trace_export(result, args.out)
    print(
        f"{entry.name} [{case.kind.value}]: f_best={result.f_best:.6g} "
        f"evaluations={result.evaluations} reason={result.reason.value}; "
        f"trace written to {args.out}"
    )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        return _cmd_trace(args)
    except (HermiteOptError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
