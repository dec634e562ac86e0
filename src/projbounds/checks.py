"""The checks a scenario can request, each described once, in ``CHECKS``.

Each entry holds the check's tolerance (``runner.DEFAULT_TOLERANCES`` is
built from them), whether it needs exactly two subspaces, whether it
needs at least one start (a residual over no starts would pass with
nothing checked; ``analyze`` runs the checks that need none), and its
function: an identity row's returns its members' values for k = 1..k_max,
one column each, which :func:`residual` turns into a residual and note.
Scenario validation, the generators, the battery, ``run_scenario`` and the
command line all take their check lists from this table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError
from .methods import (IterationTrace, cyclic_operator, error_operator_norm, kw_bound,
                      optimal_bound_simultaneous, simultaneous_operator, verify_error_identity)
from .productspace import ProductSpaceModel, build_product, chain_residual_profile, pierra_lift_residual
from .subspaces import Family

__all__ = ["CHECKS", "Check", "CheckInputs", "applicable_checks", "residual", "suite_checks", "validate_checks"]

@dataclass(eq=False)
class CheckInputs:
    """What the checks of one scenario run read; :func:`residual` writes the
    chain's per-link worst gaps to ``chain_residuals``."""

    family: Family
    k_max: int
    starts: list[np.ndarray]
    traces: list[IterationTrace] = field(default_factory=list)
    chain_residuals: list[float] | None = None

    @cached_property
    def product(self) -> ProductSpaceModel:
        """The product-space model of the family, built on first use."""
        return build_product(self.family)


def _chain(run: CheckInputs) -> np.ndarray:
    return chain_residual_profile(run.product, range(1, run.k_max + 1))


def _kw(run: CheckInputs) -> np.ndarray:
    ks = np.arange(1, run.k_max + 1)
    return np.column_stack([error_operator_norm(cyclic_operator(run.family), ks), kw_bound(run.family, ks)])


def _lemma_identity(run: CheckInputs) -> tuple[float, str]:
    ks = np.arange(1, run.k_max + 1)
    ops = (simultaneous_operator(run.family), cyclic_operator(run.family))
    residual = max(float(np.max(verify_error_identity(op, ks))) for op in ops)
    return residual, f"both operator kinds, k=1..{run.k_max}"


def _pierra_lift(run: CheckInputs) -> tuple[float, str]:
    residual = pierra_lift_residual(run.product, run.starts, range(0, run.k_max + 1))
    return residual, f"{len(run.starts)} start(s), k=0..{run.k_max}"


def _compare(run: CheckInputs) -> np.ndarray:
    ks = np.arange(1, run.k_max + 1)
    return np.column_stack([kw_bound(run.family, ks), optimal_bound_simultaneous(run.family, ks)])


def _bounds(run: CheckInputs) -> tuple[float, str]:
    violation = max((t.max_violation() for t in run.traces), default=0.0)
    return violation, f"max over {len(run.traces)} trace(s)"


class Check(NamedTuple):
    tolerance: float
    pairs_only: bool
    needs_start: bool
    fn: Callable[[CheckInputs], tuple[float, str] | np.ndarray]
    members: int = 0  # an identity row's member count; 0 on the other rows
    note: str = ""  # an identity row's note, formatted with k_max
    ordered: bool = False  # members ascend (<=) rather than agree


CHECKS = {
    "norm_chain": Check(1e-8, False, False, _chain, 6, "max adjacent residuals over k=1..{k_max}"),
    "kw": Check(1e-9, True, False, _kw, 2, "alternating error norm vs cos^(2k-1), k=1..{k_max}"),
    "lemma_identity": Check(1e-9, False, False, _lemma_identity),
    "pierra_lift": Check(1e-9, False, True, _pierra_lift),
    "compare": Check(1e-12, True, False, _compare, 2, "cyclic bound minus simultaneous bound (must be <= 0)", True),
    "bounds": Check(1e-10, False, True, _bounds),
}


def residual(name: str, run: CheckInputs) -> tuple[float, str]:
    """The residual and note of check ``name`` on ``run``.  An identity row's
    residual is its members' largest adjacent gap over every k, or for an
    ordered row the largest excess of a member over the next (0 if none);
    the chain's per-link worst gaps go to ``run.chain_residuals``."""
    check = CHECKS[name]
    if not check.members:
        return check.fn(run)
    values = check.fn(run)
    note = check.note.format(k_max=run.k_max)
    if check.ordered:
        return max(0.0, float(np.max(values[:, :-1] - values[:, 1:]))), note
    worst = np.max(np.abs(np.diff(values, axis=1)), axis=0)
    if name == "norm_chain":
        run.chain_residuals = [float(v) for v in worst]
    return float(np.max(worst)), note


def applicable_checks(r: int) -> tuple[str, ...]:
    """Every check that runs on a family of r subspaces, in table order."""
    return tuple(name for name, check in CHECKS.items() if r == 2 or not check.pairs_only)


def suite_checks(r: int) -> tuple[str, ...]:
    """What ``verify`` runs on r subspaces: the applicable checks, pairs-only last."""
    return tuple(sorted(applicable_checks(r), key=lambda name: CHECKS[name].pairs_only))


def validate_checks(names, r: int, start_count: int) -> None:
    """Raise InputError for an unknown or repeated check, a pairs-only one
    when r != 2, or one that needs a start when ``start_count`` is 0."""
    for i, name in enumerate(names):
        if name not in CHECKS:
            raise InputError(f"unknown check {name!r}; valid checks: {' '.join(CHECKS)}")
        if name in names[:i]:
            raise InputError(f"check {name!r} is listed more than once")
        if CHECKS[name].pairs_only and r != 2:
            raise InputError(f"check {name!r} requires exactly two subspaces")
        if CHECKS[name].needs_start and start_count < 1:
            raise InputError(f"check {name!r} requires at least one start")
