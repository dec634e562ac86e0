"""The checks a scenario can request, each described once, in ``CHECKS``.

Each entry holds the check's tolerance (``runner.DEFAULT_TOLERANCES`` is
built from them), whether it needs exactly two subspaces, whether it
needs at least one start (a residual over no starts would pass with
nothing checked; ``analyze`` runs the checks that need none), and the
function returning its residual and note.
Scenario validation, the generators, the battery, ``run_scenario`` and the
command line all take their check lists from this table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateError, InputError
from .methods import (
    IterationTrace,
    cyclic_operator,
    error_operator_norm,
    kw_bound,
    optimal_bound_simultaneous,
    simultaneous_operator,
    verify_error_identity,
)
from .productspace import (
    ProductSpaceModel,
    build_product,
    chain_residual_profile,
    pierra_lift_residual,
)
from .subspaces import Family

__all__ = ["CHECKS", "Check", "CheckInputs", "applicable_checks", "suite_checks", "validate_checks"]

@dataclass(eq=False)
class CheckInputs:
    """What the checks of one scenario run read; ``norm_chain`` writes its
    per-link worst residuals to ``chain_residuals``."""

    family: Family
    k_max: int
    starts: list[np.ndarray]
    traces: list[IterationTrace] = field(default_factory=list)
    chain_residuals: list[float] | None = None

    @cached_property
    def product(self) -> ProductSpaceModel:
        """The product-space model of the family, built on first use."""
        return build_product(self.family)


def _norm_chain(run: CheckInputs) -> tuple[float, str]:
    # A degenerate family makes the chain raise before any product space
    # is built.  The verdict is then checked by ||T - P_M||, walked on the
    # reduced span: exactly 0 when it has no columns, as on a genuinely
    # degenerate family.
    try:
        profile = chain_residual_profile(
            run.family if run.family.degenerate else run.product, range(1, run.k_max + 1)
        )
    except DegenerateError as exc:
        run.chain_residuals = [0.0] * 5
        return error_operator_norm(simultaneous_operator(run.family), 1), f"degenerate: {exc}"
    worst = np.max(profile, axis=0)
    run.chain_residuals = [float(v) for v in worst]
    return float(np.max(worst)), f"max adjacent residuals over k=1..{run.k_max}"


def _kw(run: CheckInputs) -> tuple[float, str]:
    ks = np.arange(1, run.k_max + 1)
    gaps = error_operator_norm(cyclic_operator(run.family), ks) - kw_bound(run.family, ks)
    return float(np.max(np.abs(gaps))), f"alternating error norm vs cos^(2k-1), k=1..{run.k_max}"


def _lemma_identity(run: CheckInputs) -> tuple[float, str]:
    ks = np.arange(1, run.k_max + 1)
    ops = (simultaneous_operator(run.family), cyclic_operator(run.family))
    residual = max(float(np.max(verify_error_identity(op, ks))) for op in ops)
    return residual, f"both operator kinds, k=1..{run.k_max}"


def _pierra_lift(run: CheckInputs) -> tuple[float, str]:
    residual = pierra_lift_residual(run.product, run.starts, range(0, run.k_max + 1))
    return residual, f"{len(run.starts)} start(s), k=0..{run.k_max}"


def _compare(run: CheckInputs) -> tuple[float, str]:
    ks = np.arange(1, run.k_max + 1)
    gaps = kw_bound(run.family, ks) - optimal_bound_simultaneous(run.family, ks)
    return max(0.0, float(np.max(gaps))), "cyclic bound minus simultaneous bound (must be <= 0)"


def _bounds(run: CheckInputs) -> tuple[float, str]:
    violation = max((t.max_violation() for t in run.traces), default=0.0)
    return violation, f"max over {len(run.traces)} trace(s)"


class Check(NamedTuple):
    tolerance: float
    pairs_only: bool
    needs_start: bool
    fn: Callable[[CheckInputs], tuple[float, str]]


CHECKS = {
    "norm_chain": Check(1e-8, False, False, _norm_chain),
    "kw": Check(1e-9, True, False, _kw),
    "lemma_identity": Check(1e-9, False, False, _lemma_identity),
    "pierra_lift": Check(1e-9, False, True, _pierra_lift),
    "compare": Check(1e-12, True, False, _compare),
    "bounds": Check(1e-10, False, True, _bounds),
}


def applicable_checks(r: int) -> tuple[str, ...]:
    """Every check that runs on a family of r subspaces, in table order."""
    return tuple(name for name, check in CHECKS.items() if r == 2 or not check.pairs_only)


def suite_checks(r: int) -> tuple[str, ...]:
    """What ``verify`` runs on r subspaces: the applicable checks, pairs-only last."""
    return tuple(sorted(applicable_checks(r), key=lambda name: CHECKS[name].pairs_only))


def validate_checks(names, r: int, start_count: int) -> None:
    """Raise InputError for an unknown check, a pairs-only one when r != 2,
    or one that needs a start when ``start_count`` is 0."""
    for name in names:
        if name not in CHECKS:
            raise InputError(f"unknown check {name!r}; valid checks: {' '.join(CHECKS)}")
        if CHECKS[name].pairs_only and r != 2:
            raise InputError(f"check {name!r} requires exactly two subspaces")
        if CHECKS[name].needs_start and start_count < 1:
            raise InputError(f"check {name!r} requires at least one start")
