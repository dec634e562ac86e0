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
from dataclasses import asdict, dataclass, field

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
from .checks import CHECKS, CheckInputs, suite_checks, validate_checks
from .errors import DegenerateError, InfeasibleError, InputError
from .methods import IterationTrace, cyclic_operator, iterate, simultaneous_operator
from .numlin import RANK_ABSOLUTE_FLOOR, RANK_RELATIVE_EPS
from .productspace import product_alternating_traces
from .scenario import METHODS, Scenario, validate_scenario
from .subspaces import Family, Subspace

__all__ = [
    "DEFAULT_TOLERANCES",
    "CheckOutcome",
    "TraceSummary",
    "Report",
    "run_scenario",
    "report_to_dict",
    "parse_report",
    "render_report",
    "emit_report",
    "verify_battery",
    "render_battery",
]

REPORT_SCHEMA = "projbounds-report v1"
BATTERY_SCHEMA = "projbounds-verify v1"

# Central tolerance block; echoed verbatim into every report.
DEFAULT_TOLERANCES = {
    "norm_chain": 1e-8,
    "kw": 1e-9,
    "lemma_identity": 1e-9,
    "pierra_lift": 1e-9,
    "compare": 1e-12,
    "bounds": 1e-10,
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
class TraceSummary:
    start_index: int
    start: list[float]
    errors: list[float]
    bounds: list[float]
    max_violation: float


@dataclass
class Report:
    scenario_name: str
    mode: str
    method: str
    ambient_dim: int
    r: int
    friedrichs: dict
    q: float | None
    chain_residuals: list[float] | None
    traces: list[TraceSummary]
    check_outcomes: list[CheckOutcome]
    error: dict | None
    seed: int
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    wall_time_s: float = 0.0

    def all_passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.check_outcomes)


def _friedrichs_entry(result: FriedrichsResult | None) -> dict | None:
    if result is None:
        return None
    return {"value": float(result.value), "degenerate": bool(result.degenerate)}


def _random_starts(s: Scenario) -> list[np.ndarray]:
    if s.random_starts <= 0:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(s.seed))
    return [rng.standard_normal(s.ambient_dim) for _ in range(s.random_starts)]


def _trace_summary(index: int, trace: IterationTrace) -> TraceSummary:
    return TraceSummary(
        start_index=index,
        start=[float(v) for v in trace.start],
        errors=[float(v) for v in trace.errors],
        bounds=[float(v) for v in trace.bounds],
        max_violation=float(trace.max_violation()),
    )


def run_scenario(s: Scenario, include_traces: bool = True,
                 checks_override=None) -> Report:
    """Execute a scenario and assemble its report.

    ``include_traces=False`` skips iteration entirely (the ``analyze``
    subcommand); ``checks_override`` replaces the scenario's check list and
    is validated like it.  Every requested check is executed and reported
    with its residual, passing or not.
    """
    validate_scenario(s)
    wanted = tuple(checks_override) if checks_override is not None else s.checks
    validate_checks(wanted, s.r, len(s.starts) + s.random_starts)
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
    try:
        norm_route = friedrichs_from_norm(family)
    except DegenerateError:
        norm_route = None
    principal = cos_two(family) if s.r == 2 else None
    friedrichs = {
        ROUTE_GRAM: _friedrichs_entry(gram),
        ROUTE_NORM: _friedrichs_entry(norm_route),
        ROUTE_PRINCIPAL: _friedrichs_entry(principal),
    }

    report = Report(
        scenario_name=s.name,
        mode=s.mode,
        method=s.method,
        ambient_dim=s.ambient_dim,
        r=s.r,
        friedrichs=friedrichs,
        q=float(optimal_rate(gram, s.r)),
        chain_residuals=None,
        traces=[],
        check_outcomes=[],
        error=None,
        seed=s.seed,
    )

    if affine is not None:
        try:
            affine.target
        except InfeasibleError as exc:
            report.error = {"kind": "infeasible_intersection", "message": str(exc)}
            report.wall_time_s = time.perf_counter() - t0
            return report

    inputs = CheckInputs(family, gram, s.k_max, list(s.starts) + _random_starts(s))

    if include_traces and inputs.starts:
        if affine is not None:
            sweep = simultaneous_affine if s.method == "simultaneous" else cyclic_affine
            traces = [sweep(affine, x0, s.k_max) for x0 in inputs.starts]
        elif s.method == "product_alternating":
            traces = product_alternating_traces(inputs.product, inputs.starts, s.k_max)
        else:
            op = (simultaneous_operator if s.method == "simultaneous" else cyclic_operator)(family)
            traces = [iterate(op, x0, s.k_max) for x0 in inputs.starts]
        report.traces = inputs.traces = [_trace_summary(i, t) for i, t in enumerate(traces)]

    for name in wanted:
        check = CHECKS[name]
        tol = DEFAULT_TOLERANCES[check.tolerance_key]
        residual, note = check.fn(inputs)
        report.check_outcomes.append(CheckOutcome(name, residual <= tol, residual, tol, note))
    report.chain_residuals = inputs.chain_residuals
    report.wall_time_s = time.perf_counter() - t0
    return report


def _outcome_entry(c: CheckOutcome) -> dict:
    return {"check": c.name, "passed": c.passed, "residual": c.residual,
            "tolerance": c.tolerance, "note": c.note}


def report_to_dict(rep: Report) -> dict:
    """Canonical JSON-ready form of a report (wall time excluded)."""
    return {
        "schema": REPORT_SCHEMA,
        "scenario_name": rep.scenario_name,
        "mode": rep.mode,
        "method": rep.method,
        "ambient_dim": rep.ambient_dim,
        "r": rep.r,
        "friedrichs": rep.friedrichs,
        "q": rep.q,
        "chain_residuals": rep.chain_residuals,
        "traces": [asdict(t) for t in rep.traces],
        "check_outcomes": [_outcome_entry(c) for c in rep.check_outcomes],
        "error": rep.error,
        "metadata": {"seed": rep.seed, "tolerances": rep.tolerances},
    }


def parse_report(text: str) -> Report:
    """Rebuild a Report from its JSON rendering."""
    doc = json.loads(text)
    if doc.get("schema") != REPORT_SCHEMA:
        raise InputError(f"unexpected report schema {doc.get('schema')!r}")
    return Report(
        scenario_name=doc["scenario_name"],
        mode=doc["mode"],
        method=doc["method"],
        ambient_dim=doc["ambient_dim"],
        r=doc["r"],
        friedrichs=doc["friedrichs"],
        q=doc["q"],
        chain_residuals=doc["chain_residuals"],
        traces=[TraceSummary(**t) for t in doc["traces"]],
        check_outcomes=[
            CheckOutcome(
                name=c["check"],
                passed=c["passed"],
                residual=c["residual"],
                tolerance=c["tolerance"],
                note=c["note"],
            )
            for c in doc["check_outcomes"]
        ],
        error=doc["error"],
        seed=doc["metadata"]["seed"],
        tolerances=doc["metadata"]["tolerances"],
    )


def _csv_lines(rep: Report) -> list[str]:
    lines = ["scenario,start_index,k,error,bound,ratio"]
    for t in rep.traces:
        for k, (err, bnd) in enumerate(zip(t.errors, t.bounds)):
            ratio = "" if bnd == 0.0 else repr(err / bnd)
            lines.append(f"{rep.scenario_name},{t.start_index},{k},{err!r},{bnd!r},{ratio}")
    return lines


def render_report(rep: Report, fmt: str = "json") -> str:
    """Render to the requested format; output is byte-stable."""
    if fmt == "json":
        return json.dumps(report_to_dict(rep), indent=2) + "\n"
    if fmt == "csv":
        return "\n".join(_csv_lines(rep)) + "\n"
    raise InputError(f"unknown format {fmt!r}; expected json or csv")


def emit_report(rep: Report, fmt: str, path) -> None:
    """Write the rendered report to ``path`` with LF newlines."""
    text = render_report(rep, fmt)
    with open(path, "w", newline="\n") as handle:
        handle.write(text)


def _battery_scenario(index: int, child: np.random.SeedSequence, kmax_cap: int) -> Scenario:
    rng = np.random.default_rng(child)
    r = int(rng.integers(2, 6))
    n = int(rng.integers(4, 31))
    dims = [int(rng.integers(1, n)) for _ in range(r)]
    k_max = int(rng.integers(1, kmax_cap + 1))
    spans = [rng.standard_normal((n, d)) for d in dims]
    seed = int(rng.integers(0, 2**31))
    return Scenario.generated(f"battery-{index:03d}", n, spans, seed, k_max, METHODS[index % 3])


def verify_battery(seed: int, count: int = 100, kmax_cap: int = 10) -> dict:
    """Run the full identity suite over seeded random instances.

    Returns the aggregate verification document (JSON-ready).  Determinism:
    all randomness descends from ``seed`` through spawned seed sequences, so
    repeated runs produce identical documents.
    """
    if count < 1:
        raise InputError("count must be at least 1")
    if kmax_cap < 1:
        raise InputError("kmax_cap must be at least 1")
    root = np.random.SeedSequence(seed)
    instances = []
    failures = 0
    for index, child in enumerate(root.spawn(count)):
        sc = _battery_scenario(index, child, kmax_cap)
        rep = run_scenario(sc, checks_override=suite_checks(sc.r))
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
