"""Scenario execution: angles, rates, traces, checks, and report emission.

Reports are plain dataclasses rendered to JSON or CSV.  Rendering is
byte-stable: identical scenario and seed produce identical files.  Wall
time is measured and kept on the in-memory report for interactive use but
is excluded from the serialized document, since a timing field would break
the byte-for-byte reproducibility the harness guarantees.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .affine import AffineFamily, AffineSubspace, cyclic_affine, simultaneous_affine
from .angles import (
    ROUTE_GRAM,
    ROUTE_NORM,
    ROUTE_PRINCIPAL,
    FriedrichsResult,
    cos_two,
    friedrichs_from_norm,
    friedrichs_gram,
    optimal_rate,
)
from .checks import CHECKS, CheckInputs, residual, suite_checks
from .errors import InfeasibleError, InputError
from .methods import IterationTrace, cyclic_operator, iterate, simultaneous_operator
from .numlin import RANK_ABSOLUTE_FLOOR, RANK_RELATIVE_EPS
from .productspace import product_alternating_traces
from .scenario import METHODS, Scenario, check_seed, validate_scenario
from .subspaces import Family, Subspace

__all__ = [
    "DEFAULT_TOLERANCES",
    "CheckOutcome",
    "Report",
    "run_scenario",
    "report_to_dict",
    "render_report",
    "verify_battery",
    "render_battery",
]

REPORT_SCHEMA = "projbounds-report v1"
BATTERY_SCHEMA = "projbounds-verify v1"

# Every check's tolerance, then the rank policy; a report applies and
# echoes this block.
DEFAULT_TOLERANCES = {name: check.tolerance for name, check in CHECKS.items()} | {
    "rank_relative_eps": RANK_RELATIVE_EPS,
    "rank_absolute_floor": RANK_ABSOLUTE_FLOOR,
}


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    residual: float
    tolerance: float
    note: str = ""

    def __post_init__(self) -> None:
        # numpy scalars leak in from norms/comparisons; keep JSON-safe types
        self.passed = bool(self.passed)
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)


@dataclass
class Report:
    scenario: Scenario
    friedrichs: dict
    q: float
    chain_residuals: list[float] | None = None
    traces: list[IterationTrace] = field(default_factory=list)
    check_outcomes: list[CheckOutcome] = field(default_factory=list)
    error: dict | None = None
    wall_time_s: float = 0.0

    def all_passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.check_outcomes)


def _friedrichs_entry(result: FriedrichsResult | None) -> dict | None:
    if result is None:
        return None
    return {"value": float(result.value), "degenerate": bool(result.degenerate)}


def _random_starts(s: Scenario) -> list[np.ndarray]:
    rng = np.random.default_rng(np.random.SeedSequence(s.seed))
    return [rng.standard_normal(s.ambient_dim) for _ in range(s.random_starts)]


def run_scenario(s: Scenario) -> Report:
    """Execute a scenario and assemble its report.

    The scenario is the whole description of the run: it iterates from
    the scenario's starts if it has any, and executes every check in
    ``s.checks``, each reported with its residual, passing or not.
    """
    validate_scenario(s)
    t0 = time.perf_counter()

    if s.mode == "affine":
        affine = AffineFamily.of(
            AffineSubspace.from_point_span(spec.anchor, spec.spanning)
            for spec in s.subspaces
        )
        family = affine.directions
    else:
        affine = None
        family = Family.of([Subspace.from_spanning(spec.spanning) for spec in s.subspaces])

    gram = friedrichs_gram(family)
    norm_route = None if family.degenerate else friedrichs_from_norm(family)
    principal = cos_two(family) if s.r == 2 else None
    friedrichs = {
        ROUTE_GRAM: _friedrichs_entry(gram),
        ROUTE_NORM: _friedrichs_entry(norm_route),
        ROUTE_PRINCIPAL: _friedrichs_entry(principal),
    }

    report = Report(s, friedrichs, float(optimal_rate(gram, s.r)))

    if affine is not None:
        try:
            affine.target
        except InfeasibleError as exc:
            report.error = {"kind": "infeasible_intersection", "message": str(exc)}
            report.wall_time_s = time.perf_counter() - t0
            return report

    inputs = CheckInputs(family, s.k_max, list(s.starts) + _random_starts(s))

    if inputs.starts:
        if affine is not None:
            sweep = simultaneous_affine if s.method == "simultaneous" else cyclic_affine
            traces = sweep(affine, inputs.starts, s.k_max)
        elif s.method == "product_alternating":
            traces = product_alternating_traces(inputs.product, inputs.starts, s.k_max)
        else:
            op = (simultaneous_operator if s.method == "simultaneous" else cyclic_operator)(family)
            traces = iterate(op, inputs.starts, s.k_max)
        report.traces = inputs.traces = traces

    for name in s.checks:
        tol = DEFAULT_TOLERANCES[name]
        value, note = residual(name, inputs)
        report.check_outcomes.append(CheckOutcome(name, value <= tol, value, tol, note))
    report.chain_residuals = inputs.chain_residuals
    report.wall_time_s = time.perf_counter() - t0
    return report


def _outcome_entry(c: CheckOutcome) -> dict:
    return {"check": c.name, "passed": c.passed, "residual": c.residual,
            "tolerance": c.tolerance, "note": c.note}


def _trace_entry(index: int, t: IterationTrace) -> dict:
    return {"start_index": index, "start": t.start.tolist(), "errors": t.errors.tolist(),
            "bounds": t.bounds.tolist(), "max_violation": t.max_violation()}


def report_to_dict(rep: Report) -> dict:
    """Canonical JSON-ready form of a report (wall time excluded)."""
    return {
        "schema": REPORT_SCHEMA,
        "scenario_name": rep.scenario.name,
        "mode": rep.scenario.mode,
        "method": rep.scenario.method,
        "ambient_dim": rep.scenario.ambient_dim,
        "r": rep.scenario.r,
        "friedrichs": rep.friedrichs,
        "q": rep.q,
        "chain_residuals": rep.chain_residuals,
        "traces": [_trace_entry(i, t) for i, t in enumerate(rep.traces)],
        "check_outcomes": [_outcome_entry(c) for c in rep.check_outcomes],
        "error": rep.error,
        "metadata": {"seed": rep.scenario.seed, "tolerances": dict(DEFAULT_TOLERANCES)},
    }


def _csv_lines(rep: Report) -> list[str]:
    lines = ["scenario,start_index,k,error,bound,ratio"]
    for index, t in enumerate(rep.traces):
        for k, (err, bnd) in enumerate(zip(t.errors.tolist(), t.bounds.tolist())):
            ratio = "" if bnd == 0.0 else repr(err / bnd)
            lines.append(f"{rep.scenario.name},{index},{k},{err!r},{bnd!r},{ratio}")
    return lines


def render_report(rep: Report, fmt: str = "json") -> str:
    """Render to the requested format; output is byte-stable."""
    if fmt == "json":
        return json.dumps(report_to_dict(rep), indent=2) + "\n"
    if fmt == "csv":
        return "\n".join(_csv_lines(rep)) + "\n"
    raise InputError(f"unknown format {fmt!r}; expected json or csv")


def _battery_scenario(index: int, child: np.random.SeedSequence, kmax_cap: int) -> Scenario:
    rng = np.random.default_rng(child)
    r = int(rng.integers(2, 6))
    n = int(rng.integers(4, 31))
    dims = [int(rng.integers(1, n)) for _ in range(r)]
    k_max = int(rng.integers(1, kmax_cap + 1))
    spans = [rng.standard_normal((n, d)) for d in dims]
    seed = int(rng.integers(0, 2**31))
    return Scenario.generated(f"battery-{index:03d}", n, spans, seed, k_max=k_max,
                              method=METHODS[index % 3])


def verify_battery(seed: int = 0, count: int = 100, kmax_cap: int = 10) -> dict:
    """Run the full identity suite over seeded random instances.

    Returns the aggregate verification document (JSON-ready).  Determinism:
    all randomness descends from ``seed`` through spawned seed sequences, so
    repeated runs produce identical documents.
    """
    check_seed(seed)
    if count < 1:
        raise InputError("count must be at least 1")
    if kmax_cap < 1:
        raise InputError("kmax_cap must be at least 1")
    root = np.random.SeedSequence(seed)
    instances = []
    failures = 0
    for index, child in enumerate(root.spawn(count)):
        sc = _battery_scenario(index, child, kmax_cap)
        rep = run_scenario(replace(sc, checks=suite_checks(sc.r)))
        passed = rep.all_passed()
        if not passed:
            failures += 1
        instances.append(
            {
                "name": sc.name,
                "r": sc.r,
                "ambient_dim": sc.ambient_dim,
                "method": sc.method,
                "k_max": sc.k_max,
                "passed": passed,
                "checks": [
                    {k: v for k, v in _outcome_entry(c).items() if k != "note"}
                    for c in rep.check_outcomes
                ],
            }
        )
    return {
        "schema": BATTERY_SCHEMA,
        "seed": seed,
        "count": count,
        "kmax_cap": kmax_cap,
        "failures": failures,
        "passed": failures == 0,
        "instances": instances,
        "tolerances": dict(DEFAULT_TOLERANCES),
    }


def render_battery(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
