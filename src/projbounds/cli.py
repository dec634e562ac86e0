"""Command-line interface.

Subcommands:

* ``analyze``  - the scenario without its starts: Friedrichs routes,
                 optimal rate, and its checks that need no start.
* ``run``      - the scenario as written: iterate from its starts, attach
                 bounds, and execute every check it requests.
* ``verify``   - the scenario with its checks replaced by the full
                 identity suite, or a seeded battery of random instances.
* ``generate`` - write scenario files with planted or random geometry.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 input
error (bad arguments, parse failure, infeasible affine intersection, a
trace that overflows float64).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .checks import CHECKS, suite_checks
from .errors import InputError, ProjBoundsError
from .runner import render_battery, render_report, run_scenario, verify_battery
from .scenario import (
    METHODS,
    format_scenario,
    generate_random,
    generate_two_subspace,
    parse_scenario,
)


def _add_common(parser: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    parser.add_argument("--format", choices=formats, default="json")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override scenario seed")
    parser.add_argument("--kmax", type=int, default=None, help="override scenario k_max")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


def _given(**values) -> dict:
    """The keyword arguments whose flag was given; a flag left out defaults
    to None, so the callee's own default holds."""
    return {key: value for key, value in values.items() if value is not None}


def _load_scenario(args):
    """The scenario file with ``--kmax`` and ``--seed`` applied; run_scenario
    validates the result."""
    return replace(parse_scenario(Path(args.scenario)), **_given(k_max=args.kmax, seed=args.seed))


def _emit_and_score(report, args) -> int:
    _write(render_report(report, args.format), args.out)
    if report.error is not None:
        print(f"error: {report.error['message']}", file=sys.stderr)
        return 2
    return 0 if report.all_passed() else 1


def _cmd_analyze(args) -> int:
    scenario = _load_scenario(args)
    checks = tuple(c for c in scenario.checks if not CHECKS[c].needs_start)
    scenario = replace(scenario, starts=[], random_starts=0, checks=checks)
    return _emit_and_score(run_scenario(scenario), args)


def _cmd_run(args) -> int:
    return _emit_and_score(run_scenario(_load_scenario(args)), args)


def _cmd_verify(args) -> int:
    if args.scenario is not None:
        scenario = _load_scenario(args)
        scenario = replace(scenario, checks=suite_checks(scenario.r))
        return _emit_and_score(run_scenario(scenario), args)
    doc = verify_battery(**_given(seed=args.seed, count=args.count, kmax_cap=args.kmax))
    _write(render_battery(doc), args.out)
    return 0 if doc["passed"] else 1


def _cmd_generate(args) -> int:
    fields = _given(k_max=args.kmax, method=args.method)
    if args.kind == "two-subspace":
        scenario = generate_two_subspace(
            theta_deg=args.theta,
            ambient_dim=args.dim,
            shared_dim=args.shared_dim,
            seed=args.seed,
            **fields,
        )
    else:
        try:
            dims = [int(tok) for tok in args.dims.split(",")]
        except ValueError:
            raise InputError(f"--dims expects comma-separated integers, got {args.dims!r}") from None
        scenario = generate_random(
            r=args.r,
            ambient_dim=args.dim,
            dims=dims,
            seed=args.seed,
            **fields,
        )
    _write(format_scenario(scenario), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projbounds",
        description="Projection methods on subspaces: rates, norms, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="angles and norms only")
    p_analyze.add_argument("--scenario", required=True)
    _add_common(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_run = sub.add_parser("run", help="iterate and check bounds")
    p_run.add_argument("--scenario", required=True)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="full identity suite")
    p_verify.add_argument("--scenario", default=None,
                          help="verify one scenario instead of the random battery")
    p_verify.add_argument("--count", type=int, default=None,
                          help="battery size (ignored with --scenario)")
    _add_common(p_verify, formats=("json",))
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="write scenario files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    gen_common = argparse.ArgumentParser(add_help=False)
    gen_common.add_argument("--seed", type=int, default=0)
    gen_common.add_argument("--kmax", type=int, default=None)
    gen_common.add_argument("--method", choices=METHODS, default=None)
    gen_common.add_argument("--out", default=None)

    g_two = gen_sub.add_parser("two-subspace", parents=[gen_common],
                               help="pair with a planted angle")
    g_two.add_argument("--theta", type=float, required=True, help="angle in degrees, (0, 90]")
    g_two.add_argument("--dim", type=int, required=True, help="ambient dimension")
    g_two.add_argument("--shared-dim", dest="shared_dim", type=int, default=0)
    g_two.set_defaults(func=_cmd_generate, kind="two-subspace")

    g_rand = gen_sub.add_parser("random", parents=[gen_common], help="seeded random family")
    g_rand.add_argument("--r", type=int, required=True)
    g_rand.add_argument("--dim", type=int, required=True)
    g_rand.add_argument("--dims", required=True, help="comma-separated dimensions, one per subspace")
    g_rand.set_defaults(func=_cmd_generate, kind="random")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProjBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
