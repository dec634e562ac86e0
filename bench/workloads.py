"""Benchmark workloads: generated inputs, the op that runs them, the gate.

One op is one in-process call of ``projbounds.cli.main(argv)`` that writes
its report to a file, the path a command-line user pays for.  Each
workload derives a small pool of op inputs from the workload seed; the
program only ever sees the generated scenario files and CLI arguments.

Why each workload exists (see README.md for the full notes):

* ``battery``: many tiny instances, so per-call overhead and redundant
  validation dominate and large-kernel speed does not show.
* ``family``: one large simultaneous family, dominated by SVDs of
  product-space matrices, so kernel work shows and caching does not.
* ``affine_pair``: a planted mid-size pair analysed again and again per k
  and per start; the only workload on the affine layer and on the
  iteration path with many starts, so caching shows here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Module attributes, not imported names, so that traced runs see the
# rebound generators.
from projbounds import cli, scenario

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Friedrichs values and q must match the stored reference this closely.
# Kernel changes move the last bits (~1e-15); a wrong number moves far more.
REFERENCE_TOL = 1e-9
PLANTED_THETA_DEG = 50.0
PLANTED_TOL = 1e-10
# Family and pair instances are drawn from this many generator seeds, all
# of which have reference values in reference.json.
UNIVERSE = 64
# Distinct op inputs per run; timed ops cycle through them and each is
# warmed up once, untimed, before its first timed op.  A battery's cost
# depends strongly on its seed, so every battery op gets a fresh seed (the
# pool is larger than the ops one run makes).  Family and pair instances
# have fixed shapes and cost the same whatever their seed, so two suffice.
BATTERY_POOL = 64
SCENARIO_POOL = 2


@dataclass(frozen=True)
class OpInput:
    """One op: CLI arguments, where the report lands, and what to expect."""

    argv: tuple[str, ...]
    out: Path
    reference: dict | None = None
    planted_cos: float | None = None


@dataclass(frozen=True)
class Size:
    battery_count: int
    family: dict
    pair: dict


SIZES = {
    "full": Size(
        battery_count=20,
        family=dict(r=4, ambient_dim=150, dims=[50] * 4, k_max=16),
        pair=dict(ambient_dim=150, shared_dim=30, k_max=30, random_starts=16),
    ),
    # Smoke-test size: same code paths, a fraction of a second per op.
    "tiny": Size(
        battery_count=3,
        family=dict(r=3, ambient_dim=12, dims=[4] * 3, k_max=4),
        pair=dict(ambient_dim=12, shared_dim=3, k_max=5, random_starts=2),
    ),
}


def family_scenario(index: int, size: Size, position: int = 0):
    """Random r-subspace family, simultaneous method, generator seed ``index``."""
    return scenario.generate_random(seed=index, method="simultaneous", **size.family)


def pair_scenario(index: int, size: Size, position: int = 0):
    """Planted 50-degree pair turned affine with consistent anchors.

    Every anchor is one common point plus an offset inside its own span, so
    the affine sets meet and the intersection is feasible.  The first pool
    entry sweeps cyclically and the second simultaneously, so both affine
    iterations run in every run.
    """
    params = dict(size.pair)
    random_starts = params.pop("random_starts")
    method = ("cyclic", "simultaneous")[position % 2]
    s = scenario.generate_two_subspace(PLANTED_THETA_DEG, seed=index, method=method, **params)
    rng = np.random.default_rng([index, 1])
    common = rng.standard_normal(s.ambient_dim)
    for spec in s.subspaces:
        spec.anchor = common + spec.spanning @ rng.standard_normal(spec.spanning.shape[1])
    s.mode = "affine"
    s.random_starts = random_starts
    return s


def _pick(seed: int, pool: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.choice(UNIVERSE, size=pool, replace=False)]


def _reference(key: str, index: int) -> dict:
    table = json.loads(REFERENCE_PATH.read_text())[key]
    return table[str(index)]


def battery_inputs(seed: int, workdir: Path, size_name: str) -> list[OpInput]:
    size = SIZES[size_name]
    rng = np.random.default_rng(seed)
    inputs = []
    for i, battery_seed in enumerate(rng.integers(0, 2**31, size=BATTERY_POOL)):
        out = workdir / f"battery-{i}.json"
        argv = ("verify", "--count", str(size.battery_count), "--seed", str(battery_seed),
                "--out", str(out))
        inputs.append(OpInput(argv=argv, out=out))
    return inputs


def _scenario_inputs(seed, workdir, size_name, key, build, command, planted_cos=None):
    inputs = []
    for i, index in enumerate(_pick(seed, SCENARIO_POOL)):
        path = workdir / f"{key}-{i}.scenario"
        path.write_text(scenario.format_scenario(build(index, SIZES[size_name], i)))
        out = workdir / f"{key}-{i}.json"
        ref_key = key if size_name == "full" else f"{key}_{size_name}"
        inputs.append(OpInput(
            argv=(command, "--scenario", str(path), "--out", str(out)),
            out=out,
            reference=_reference(ref_key, index),
            planted_cos=planted_cos,
        ))
    return inputs


def family_inputs(seed: int, workdir: Path, size_name: str) -> list[OpInput]:
    return _scenario_inputs(seed, workdir, size_name, "family", family_scenario, "run")


def pair_inputs(seed: int, workdir: Path, size_name: str) -> list[OpInput]:
    planted = float(np.cos(np.deg2rad(PLANTED_THETA_DEG)))
    return _scenario_inputs(seed, workdir, size_name, "affine_pair", pair_scenario,
                            "verify", planted)


WORKLOADS = {
    "battery": battery_inputs,
    "family": family_inputs,
    "affine_pair": pair_inputs,
}


def run_op(op: OpInput) -> int:
    """Run one op through the CLI entry point; return its exit code."""
    return cli.main(list(op.argv))


def gate(op: OpInput, code: int, output: bytes, warm_output: bytes | None) -> str | None:
    """Why the op's output is wrong, or None when it passes every check."""
    if code != 0:
        return f"exit code {code}"
    if warm_output is not None and output != warm_output:
        return "report bytes differ from the warm-up run of the same op"
    doc = json.loads(output)
    if "instances" in doc:
        verdicts = [c["passed"] for inst in doc["instances"] for c in inst["checks"]]
        verdicts += [doc["passed"]] + [inst["passed"] for inst in doc["instances"]]
    else:
        if doc["error"] is not None:
            return f"report error {doc['error']}"
        verdicts = [c["passed"] for c in doc["check_outcomes"]]
    if not all(verdicts):
        return "a check verdict failed"
    if op.reference is not None:
        expected = dict(op.reference["friedrichs"], q=op.reference["q"])
        actual = {route: (entry or {}).get("value") for route, entry in doc["friedrichs"].items()}
        actual["q"] = doc["q"]
        for key, value in expected.items():
            got = actual.get(key)
            if (value is None) != (got is None):
                return f"{key}: expected {value}, got {got}"
            if value is not None and abs(got - value) > REFERENCE_TOL:
                return f"{key}: {got!r} differs from reference {value!r}"
    if op.planted_cos is not None:
        for route, entry in doc["friedrichs"].items():
            if abs(entry["value"] - op.planted_cos) > PLANTED_TOL:
                return f"{route}: {entry['value']!r} is not cos {PLANTED_THETA_DEG:g} deg"
    return None
