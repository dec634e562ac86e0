"""Mutation gate for the product-space paths and the two sides of the
lemma identity T^k - P_M = (T - P_M)^k (DeMillo, Lipton & Sayward,
"Hints on test data selection", Computer 11(4), 1978).

Each row of ``FAULTS`` plants one small fault with ``monkeypatch`` and
names the checks that must fail on one fixed family because of it; every
other check must still pass.  The unmutated code passes them all.  Each
independent path of the norm chain has its own row, so no member can
turn into a copy of another unnoticed, and so has each side of the
lemma.  The family has a one-dimensional common part, so C intersect D
is not {0}, and the scenario iterates in the product space, so
``bounds`` reads the lifted traces.  A family wrongly judged degenerate
is planted on base-space runs, whose trace bounds read the operator's
rate.
"""

import numpy as np
import pytest

from projbounds import checks, methods, productspace
from projbounds.productspace import ProductSpaceModel, lift_diag
from projbounds.runner import run_scenario
from projbounds.scenario import Scenario
from projbounds.subspaces import Family, Subspace

N = 6


def scenario(method="product_alternating"):
    rng = np.random.default_rng(2024)
    common = rng.standard_normal((N, 1))
    spans = [np.hstack([common, rng.standard_normal((N, d))]) for d in (2, 3, 2)]
    return Scenario.generated("mutation-gate", N, spans, 7, k_max=8, method=method)


def failed_checks(method="product_alternating"):
    report = run_scenario(scenario(method))
    assert report.error is None
    return {c.name for c in report.check_outcomes if not c.passed}


def patch_product(monkeypatch, change):
    """Every check and trace of a run reads the model that ``change`` makes
    of the real one."""
    real = checks.build_product
    monkeypatch.setattr(checks, "build_product", lambda fam: change(real(fam)))


def drop_last_block(monkeypatch):
    def change(model):
        C = Subspace(model.C.basis[:, : -model.family.members[-1].dim])
        return ProductSpaceModel(C, model.D, model.family, Family((C, model.D)))

    patch_product(monkeypatch, change)


def step_without_D(monkeypatch):
    monkeypatch.setattr(ProductSpaceModel, "step", lambda model, y: model.C.project(y))


def trivial_CD(monkeypatch):
    def change(model):
        wrong = Subspace.trivial(model.C.ambient_dim)
        monkeypatch.setitem(model.pair.__dict__, "intersection", wrong)
        return model

    patch_product(monkeypatch, change)


def anchor_from_base(monkeypatch):
    # P_CD lift(x) equals lift(P_M x) (Pierra's lemma), so this swap alone
    # changes no residual beyond rounding.  It is planted where C
    # intersect D is wrong: the real anchor fails pierra_lift there
    # (row "C intersect D taken as {0}"), the swapped one cannot.
    trivial_CD(monkeypatch)

    def limit(model, y):
        base = model.family.intersection.project(y[:N])
        if base.ndim == 1:
            return lift_diag(model, base)
        return np.column_stack([lift_diag(model, column) for column in base.T])

    monkeypatch.setattr(ProductSpaceModel, "limit", limit)


def walk_one_step_ahead(monkeypatch, ahead):
    """Every walk of ``productspace.orbit`` whose start x has ``ahead(x)``
    skips its first iterate."""
    real = productspace.orbit

    def orbit(step, x):
        walk = real(step, x)
        if ahead(x):
            next(walk)
        return walk

    monkeypatch.setattr(productspace, "orbit", orbit)


def power_walk_one_step_ahead(monkeypatch, ahead, module=methods):
    """Every walk of ``<module>.power_orbit`` whose matrix A has ``ahead(A)``
    skips its first iterate."""
    real = module.power_orbit

    def power_orbit(A, X):
        walk = real(A, X)
        if ahead(A):
            next(walk)
        return walk

    monkeypatch.setattr(module, "power_orbit", power_orbit)


def span_without_last_column(monkeypatch):
    """The product model reads a copy of the family whose span lacks its
    last column; the lemma still reads the real family."""

    def change(model):
        family = Family(model.family.members)
        monkeypatch.setitem(family.__dict__, "span", model.family.span[:, :-1])
        return ProductSpaceModel(model.C, model.D, family, model.pair)

    patch_product(monkeypatch, change)


def scaled(monkeypatch, name):
    """``productspace.<name>`` returns its value times 1 + 1e-6."""
    real = getattr(productspace, name)
    monkeypatch.setattr(productspace, name, lambda *args: real(*args) * (1 + 1e-6))


FAULTS = {
    "C without its last member's block": (drop_last_block, {"norm_chain", "pierra_lift"}),
    "lifted step applies P_C only": (step_without_D, {"norm_chain", "pierra_lift", "bounds"}),
    "C intersect D taken as {0}": (trivial_CD, {"norm_chain", "pierra_lift"}),
    "anchor reads lift(P_M x) for P_CD lift(x)": (anchor_from_base, {"norm_chain"}),
    # Pierra's base side lives in R^N; its lifted side, in R^(N*r).
    "base side of Pierra one exponent ahead": (
        lambda mp: walk_one_step_ahead(mp, lambda x: x.shape[0] == N),
        {"pierra_lift"},
    ),
    "chain members 1 and 2: symmetric norm scaled": (
        lambda mp: scaled(mp, "symmetric_norm"),
        {"norm_chain"},
    ),
    "chain member 3: optimal rate scaled": (lambda mp: scaled(mp, "optimal_rate"), {"norm_chain"}),
    "chain member 4: cos(C, D) scaled": (lambda mp: scaled(mp, "cos_CD"), {"norm_chain"}),
    # The chain walks D's basis, a block; Pierra's walks are of vectors.
    "chain members 5 and 6: walk of D's basis one step ahead": (
        lambda mp: walk_one_step_ahead(mp, lambda x: x.ndim == 2),
        {"norm_chain"},
    ),
    # Members 1 and 2 walk the family's span through T, the chain's only
    # power walk.
    "chain member 1: walk of T on the span one step ahead": (
        lambda mp: power_walk_one_step_ahead(mp, lambda A: True, productspace),
        {"norm_chain"},
    ),
    # The product walk starts from the lift of the family's span, which
    # must contain every member.
    "product walk starts from a span missing its last column": (
        span_without_last_column,
        {"norm_chain"},
    ),
    # The lemma's left side walks the domain through T, the operator's
    # read-only matrix; its right side through T - P_M, formed afresh.
    "lemma left side: walk of T one step ahead": (
        lambda mp: power_walk_one_step_ahead(mp, lambda A: not A.flags.writeable),
        {"lemma_identity"},
    ),
    "lemma right side: walk of T - P_M one step ahead": (
        lambda mp: power_walk_one_step_ahead(mp, lambda A: A.flags.writeable),
        {"lemma_identity"},
    ),
}


def test_unmutated_code_passes_every_check():
    assert failed_checks() == set()


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_exactly_its_checks(monkeypatch, fault):
    plant, expected = FAULTS[fault]
    plant(monkeypatch)
    assert failed_checks() == expected


@pytest.mark.parametrize("method", ["simultaneous", "cyclic"])
def test_forced_degeneracy_fails_bounds(monkeypatch, method):
    # Every route and the norm chain read Family.degenerate; the traces'
    # rate, on a degenerate family only the members' rounding-level
    # defects, is refuted by the iterates' errors.
    assert failed_checks(method) == set()
    monkeypatch.setattr(Family, "degenerate", True)
    assert failed_checks(method) == {"bounds"}
