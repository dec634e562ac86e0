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
error (bad arguments, parse failure, infeasible affine intersection).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

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


def _load_scenario(args):
    """The scenario file with ``--kmax`` and ``--seed`` applied; run_scenario
    validates the result."""
    overrides = {"k_max": args.kmax, "seed": args.seed}
    return replace(parse_scenario(args.scenario),
                   **{key: value for key, value in overrides.items() if value is not None})


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
    doc = verify_battery(seed=args.seed if args.seed is not None else 0,
                         count=args.count,
                         kmax_cap=args.kmax if args.kmax is not None else 10)
    _write(render_battery(doc), args.out)
    return 0 if doc["passed"] else 1


def _cmd_generate(args) -> int:
    if args.kind == "two-subspace":
        scenario = generate_two_subspace(
            theta_deg=args.theta,
            ambient_dim=args.dim,
            shared_dim=args.shared_dim,
            seed=args.seed,
            k_max=args.kmax,
            method=args.method,
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
            k_max=args.kmax,
            method=args.method,
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
    p_verify.add_argument("--count", type=int, default=100,
                          help="battery size (ignored with --scenario)")
    _add_common(p_verify, formats=("json",))
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("generate", help="write scenario files")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    g_two = gen_sub.add_parser("two-subspace", help="pair with a planted angle")
    g_two.add_argument("--theta", type=float, required=True, help="angle in degrees, (0, 90]")
    g_two.add_argument("--dim", type=int, required=True, help="ambient dimension")
    g_two.add_argument("--shared-dim", dest="shared_dim", type=int, default=0)
    g_two.add_argument("--seed", type=int, default=0)
    g_two.add_argument("--kmax", type=int, default=10)
    g_two.add_argument("--method", choices=METHODS, default="simultaneous")
    g_two.add_argument("--out", default=None)
    g_two.set_defaults(func=_cmd_generate, kind="two-subspace")

    g_rand = gen_sub.add_parser("random", help="seeded random family")
    g_rand.add_argument("--r", type=int, required=True)
    g_rand.add_argument("--dim", type=int, required=True)
    g_rand.add_argument("--dims", required=True, help="comma-separated dimensions, one per subspace")
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("--kmax", type=int, default=10)
    g_rand.add_argument("--method", choices=METHODS, default="simultaneous")
    g_rand.add_argument("--out", default=None)
    g_rand.set_defaults(func=_cmd_generate, kind="random")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProjBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
