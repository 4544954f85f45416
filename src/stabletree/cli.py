"""Command-line interface.

Exit codes: 0 success, 1 tolerance failure, 2 usage or configuration
error, 3 resource budget error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, ResourceBudgetError
from .harness import (
    KINDS, OPTIONS, SELFTESTS, VARIANTS, ExperimentConfig, load_f_table_file, run, selftest
)

_CHECKS = ("enumerate", "verify-boundary", "verify-lemma")  # the commands that run no experiment


def _model_spec(args) -> dict:
    """The model block of the options given; ``build_model`` judges it."""
    spec = {"variant": args.model, "d": args.d, "alpha": args.alpha}
    if args.theta is not None:
        spec["theta"] = args.theta
    if args.f_table:
        spec["w_masses"], spec["f_table"] = load_f_table_file(args.f_table)
    return spec


def _emit(result, args):
    if args.csv:
        result.write_csv(args.csv)
    if args.json:
        result.write_json(args.json)
    print(json.dumps(result.summary, indent=2, sort_keys=True, default=str))
    if result.passed is False:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stabletree",
        description="Stable random fields on free-group Cayley trees: "
        "simulation and verification experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="print ball or sphere words, one per line")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sphere", action="store_true", help="sphere C_n instead of ball E_n")

    p = sub.add_parser("verify-boundary", help="weakly wandering cover and cylinder actions")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--depth-cap", type=int, default=8)
    p.add_argument("--translate-n", type=int, default=4)

    p = sub.add_parser("verify-lemma", help="subgraph sphere-count table")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--ell-max", type=int, default=4)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("selftest", help="run a module oracle suite")
    p.add_argument("scope", choices=SELFTESTS)

    limit = sub.add_parser("limit", help="limit point process: constant, Laplace, or samples")
    limit_actions = limit.add_subparsers(dest="action", required=True)
    for kind, row in KINDS.items():
        if row.needs_mma:
            p = limit_actions.add_parser(kind.removeprefix("limit-"), help=row.help)
        else:
            p = sub.add_parser(f"simulate-{kind}", help=row.help)
        p.set_defaults(kind=kind)
        p.add_argument("--model", choices=("mma",) if row.needs_mma else VARIANTS, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--theta", type=float, default=None, help="Pareto exponent")
        p.add_argument("--f-table", default=None, help="JSON kernel file for mma")
        p.add_argument("--seed", type=int, default=0, required=row.role is not None)
        required = row.draws_from == 0  # a simulate command always draws the field
        if row.draws_from is not None:
            p.add_argument("--n", type=int, default=0, required=required, help="ball radius")
        if row.min_reps > 0:
            p.add_argument("--reps", type=int, default=row.min_reps, required=required)
        for block in ("params", "tolerances"):
            for key in getattr(row, block):
                opt = OPTIONS[key]
                metavar = opt.flag[2:].replace("-", "_").upper()
                keywords = dict(default=opt.default, type=opt.type, nargs=opt.nargs, help=opt.help)
                p.add_argument(opt.flag, dest=f"{block}.{key}", metavar=metavar, **keywords)
        p.add_argument("--csv", default=None)
        p.add_argument("--json", default=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a check's bad argument: rank < 2, radius < 0, nothing to check
        if args.command not in _CHECKS:  # in an experiment it is a fault: keep the traceback
            raise
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "enumerate":
        from .free_group import enumerate_ball, enumerate_sphere, format_word

        words = enumerate_sphere(args.d, args.n) if args.sphere else enumerate_ball(args.d, args.n)
        for w in words:
            print(format_word(w))
        return 0

    if args.command == "verify-boundary":
        from .boundary import (
            CylinderSet,
            act_on_cylinder,
            disjoint_translates_report,
            verify_weakly_wandering,
        )
        from .free_group import enumerate_sphere, format_word

        rep = verify_weakly_wandering(args.d, args.depth_cap)
        trans = disjoint_translates_report(args.d, args.translate_n)
        action_table = []
        for t in enumerate_sphere(args.d, 1):
            for g in enumerate_sphere(args.d, 1):
                img = act_on_cylinder(t, CylinderSet.from_words(args.d, [g]))
                action_table.append(
                    {
                        "t": format_word(t),
                        "cylinder": format_word(g),
                        "image": [format_word(w) for w in img.words],
                        "image_measure": str(img.measure),
                    }
                )
        print(
            json.dumps(
                {
                    "weakly_wandering": rep.to_jsonable(),
                    "disjoint_translates": trans.to_jsonable(),
                    "action_table": action_table,
                },
                indent=2,
            )
        )
        return 0 if (rep.pairwise_disjoint and trans.pairwise_disjoint) else 1

    if args.command == "verify-lemma":
        from .subgraphs import check_sphere_counts

        rows = check_sphere_counts(args.d, args.ell_max, args.k_max, args.samples, args.seed)
        all_ok = all(r["all_match"] for r in rows)
        print(json.dumps({"d": args.d, "rows": rows, "passed": all_ok}, indent=2))
        return 0 if all_ok else 1

    if args.command == "selftest":
        report = selftest(args.scope)
        print(json.dumps(report, indent=2))
        return 0 if report["passed"] else 1

    row = KINDS[args.kind]
    cfg = ExperimentConfig(
        kind=args.kind,
        model=_model_spec(args),
        seed=args.seed,
        params={key: getattr(args, f"params.{key}") for key in row.params},
        tolerances={
            key: getattr(args, f"tolerances.{key}")
            for key in row.tolerances
            if getattr(args, f"tolerances.{key}") is not None
        },
        **{key: getattr(args, key) for key in ("n", "reps") if key in args},
    )
    return _emit(run(cfg), args)


if __name__ == "__main__":
    sys.exit(main())
