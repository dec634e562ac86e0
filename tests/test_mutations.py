"""Mutation gate for the product-space paths, the two sides of the
lemma identity T^k - P_M = (T - P_M)^k and the members of every identity
check (DeMillo, Lipton & Sayward, "Hints on test data selection",
Computer 11(4), 1978).

Each row of ``FAULTS`` plants one small fault with ``monkeypatch`` and
names the checks that must fail on one fixed family because of it; every
other check must still pass.  The unmutated code passes them all.  Each
independent path of the norm chain has its own row, so no member can
turn into a copy of another unnoticed, and so has each side of the
lemma.  The family has a one-dimensional common part, so C intersect D
is not {0}, and the scenario iterates in the product space, so
``bounds`` reads the lifted traces.  A family wrongly judged degenerate
is planted on every method's runs: the norm chain's degenerate witness
refutes it, and so do base-space trace bounds, which read the
operator's rate.

``MEMBER_FAULTS`` is generated from the identity rows of ``checks.CHECKS``:
each member of an equal row scaled by 1 + 1e-6, and the two sides of an
ordered row swapped.  Each must fail its own check alone, on this family
and on a 50-degree pair, where the pairs-only checks run too.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from projbounds import checks, methods, productspace, subspaces
from projbounds.productspace import ProductSpaceModel, lift_diag
from projbounds.runner import run_scenario
from projbounds.scenario import Scenario, generate_two_subspace
from projbounds.subspaces import Family, Subspace
from helpers import dense_C, gate_spans

N = 6


def scenario(method="product_alternating"):
    gate = Scenario.generated("mutation-gate", N, gate_spans(N), 7, k_max=8, method=method)
    return replace(gate, random_starts=4)


def pair_scenario():
    """A 50-degree pair of R^8 sharing a plane, so that the pairs-only
    checks run too."""
    return replace(generate_two_subspace(50.0, 8, 2, 3, k_max=8), random_starts=4)


def failures(s):
    report = run_scenario(s)
    assert report.error is None
    return {c.name for c in report.check_outcomes if not c.passed}


def failed_checks(method="product_alternating"):
    return failures(scenario(method))


def patch_product(monkeypatch, change):
    """Every check and trace of a run reads the model that ``change`` makes
    of the real one."""
    real = checks.build_product
    monkeypatch.setattr(checks, "build_product", lambda fam: change(real(fam)))


def drop_last_block(monkeypatch):
    def change(model):
        *kept, last = model.C_blocks
        return replace(model, C_blocks=(*kept, last[:, :0]))

    patch_product(monkeypatch, change)


def step_without_D(monkeypatch):
    monkeypatch.setattr(ProductSpaceModel, "step", lambda model, y: dense_C(model).project(y))


def P_D_copies_first_block(monkeypatch):
    """The lifted step copies P_C y's first block into every block, where
    P_D takes the mean of the r blocks."""

    def step(model, y):
        return lift_diag(model, dense_C(model).project(y)[:N])

    monkeypatch.setattr(ProductSpaceModel, "step", step)


def trivial_CD(monkeypatch):
    patch_product(monkeypatch, lambda model: replace(model, CD=Subspace.trivial(N * len(model.family))))


def CD_one_short(monkeypatch):
    """C intersect D built for a copy of the family whose M lacks its last
    column; everything else reads the real family."""

    def change(model):
        family = Family(model.family.members)
        short = Subspace(model.family.intersection.basis[:, :-1])
        monkeypatch.setitem(family.__dict__, "intersection", short)
        return replace(model, CD=productspace.build_product(family).CD)

    patch_product(monkeypatch, change)


def anchor_from_base(monkeypatch):
    # P_CD lift(x) equals lift(P_M x) (Pierra's lemma), so this swap alone
    # changes no residual beyond rounding.  It is planted where C
    # intersect D is wrong: the real anchor fails pierra_lift there
    # (row "C intersect D taken as {0}"), the swapped one cannot.
    trivial_CD(monkeypatch)

    def limit(model, y):
        return lift_diag(model, model.family.intersection.project(y[:N]))

    monkeypatch.setattr(ProductSpaceModel, "limit", limit)


def walk_one_step_ahead(monkeypatch, ahead, module=productspace):
    """Every walk of ``<module>.orbit`` whose step and start x have
    ``ahead(step, x)`` skips its first iterate."""
    real = module.orbit

    def orbit(step, x):
        walk = real(step, x)
        if ahead(step, x):
            next(walk)
        return walk

    monkeypatch.setattr(module, "orbit", orbit)


def steps_T(step):
    """Whether ``step`` is an operator's T, not the lifted step or T - P_M."""
    return isinstance(getattr(step, "__self__", None), methods.IterOperator)


def reduced_span_without_first_column(monkeypatch):
    """The product model reads a copy of the family whose reduced span lacks
    its first column; the lemma still reads the real family.  (Its last
    column is no fault: the gate's reduced parts, 2 + 3 + 2 columns in R^6,
    span M-perp only, so the sixth column of their QR carries no error.)"""

    def change(model):
        family = Family(model.family.members)
        monkeypatch.setitem(family.__dict__, "reduced_span", model.family.reduced_span[:, 1:])
        return replace(model, family=family)

    patch_product(monkeypatch, change)


def reduced_components_one_short(monkeypatch):
    real = subspaces.reduced_component

    def reduced_component(Mi, M):
        return Subspace(real(Mi, M).basis[:, :-1])

    monkeypatch.setattr(subspaces, "reduced_component", reduced_component)


def has_orthonormal_columns(X):
    return np.allclose(X.T @ X, np.eye(X.shape[1]), atol=1e-12)


def targets_from_first_start(monkeypatch):
    """Every start's trace measures its error against the target of the
    first start of the block, a column mixed into its neighbours."""
    real = methods.error_profile

    def error_profile(X, target, step, k_max):
        return real(X, np.repeat(target[:, :1], X.shape[1], axis=1), step, k_max)

    monkeypatch.setattr(methods, "error_profile", error_profile)


FAULTS = {
    # The faulty model keeps the real C intersect D, which its C no longer
    # holds, so cos(C, D) read from it falls short and so do the lifted
    # traces' bounds.
    "C without its last member's block": (
        drop_last_block,
        {"norm_chain", "pierra_lift", "bounds"},
    ),
    "lifted step applies P_C only": (step_without_D, {"norm_chain", "pierra_lift", "bounds"}),
    "lifted P_D copies the first block, not the block mean": (
        P_D_copies_first_block,
        {"norm_chain", "pierra_lift", "bounds"},
    ),
    "C intersect D taken as {0}": (trivial_CD, {"norm_chain", "pierra_lift"}),
    "C intersect D sized dim M - 1": (CD_one_short, {"norm_chain", "pierra_lift"}),
    "anchor reads lift(P_M x) for P_CD lift(x)": (anchor_from_base, {"norm_chain"}),
    # Pierra's base side walks the starts in R^N through T; chain member 1
    # walks the orthonormal reduced span through T too.
    "base side of Pierra one exponent ahead": (
        lambda mp: walk_one_step_ahead(
            mp, lambda step, x: steps_T(step) and not has_orthonormal_columns(x)
        ),
        {"pierra_lift"},
    ),
    # The chain walks Q_D times the reduced span, whose columns are orthonormal,
    # through the lifted step; Pierra's walks are of the starts.
    "chain members 5 and 6: walk of D's basis one step ahead": (
        lambda mp: walk_one_step_ahead(
            mp, lambda step, x: not steps_T(step) and has_orthonormal_columns(x)
        ),
        {"norm_chain"},
    ),
    # Members 1 and 2 walk the reduced span through T.
    "chain member 1: walk of T on the span one step ahead": (
        lambda mp: walk_one_step_ahead(mp, lambda step, x: steps_T(step) and has_orthonormal_columns(x)),
        {"norm_chain"},
    ),
    # The product walk starts from the lift of the family's reduced span,
    # which must contain every reduced component.
    "product walk starts from a reduced span missing its first column": (
        reduced_span_without_first_column,
        {"norm_chain"},
    ),
    # Members 1 (a walk of T on the reduced span) and 3 (q from
    # the reduced bases' Gram) both read the reduced components; a fault
    # there must not move them together.
    "every reduced component one column short": (reduced_components_one_short, {"norm_chain"}),
    # The lemma's left side walks the domain through T.step; its right side
    # through T - P_M, a plain function.  The lifted traces walk the
    # product model's step.
    "lemma left side: walk of T one step ahead": (
        lambda mp: walk_one_step_ahead(mp, lambda step, x: steps_T(step), methods),
        {"lemma_identity"},
    ),
    "lemma right side: walk of T - P_M one step ahead": (
        lambda mp: walk_one_step_ahead(mp, lambda step, x: not hasattr(step, "__self__"), methods),
        {"lemma_identity"},
    ),
    # The starts walk as one block; each trace must read its own column.
    # C intersect D is a line, so two starts' targets can lie close; of
    # four starts, some lie far enough from the first's target to show.
    "every start's target taken from the first start's column": (
        targets_from_first_start,
        {"bounds"},
    ),
}


def test_unmutated_code_passes_every_check():
    assert failed_checks() == set()


def test_unmutated_code_passes_every_check_on_the_pair():
    assert failures(pair_scenario()) == set()


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_exactly_its_checks(monkeypatch, fault):
    plant, expected = FAULTS[fault]
    plant(monkeypatch)
    assert failed_checks() == expected


@pytest.mark.parametrize("method", ["simultaneous", "cyclic"])
def test_short_reduced_components_fail_the_chain_on_base_space_runs(monkeypatch, method):
    # The base-space trace rates read the reduced components too, but on
    # this family only the chain shows the fault.
    reduced_components_one_short(monkeypatch)
    assert failed_checks(method) == {"norm_chain"}


FORCED_DEGENERACY_FAILS = {
    "simultaneous": {"bounds", "norm_chain"},
    "cyclic": {"bounds", "norm_chain"},
    "product_alternating": {"norm_chain"},
}


@pytest.mark.parametrize("method", FORCED_DEGENERACY_FAILS)
def test_forced_degeneracy_fails_bounds(monkeypatch, method):
    # Every route and the norm chain read Family.degenerate.  The chain's
    # witness ||T - P_M||, walked on the reduced span, is 0 only on a truly
    # degenerate family; the base-space traces' rate, on a degenerate family
    # only the members' rounding-level defects, is refuted by the iterates'
    # errors.  The lifted traces' bounds read cos(C, D), not the verdict.
    assert failed_checks(method) == set()
    monkeypatch.setattr(Family, "degenerate", True)
    assert failed_checks(method) == FORCED_DEGENERACY_FAILS[method]


def plant_members(monkeypatch, name, change):
    """The member values of identity row ``name`` reach checks.residual as
    ``change`` makes them."""
    check = checks.CHECKS[name]
    monkeypatch.setitem(checks.CHECKS, name, check._replace(fn=lambda run: change(check.fn(run))))


def member_faults():
    """The gate rows generated from the identity rows of ``checks.CHECKS``:
    each member column of an equal row scaled by 1 + 1e-6, and the two sides
    of an ordered row swapped; fault name -> (check, change)."""
    faults = {}
    for name, check in checks.CHECKS.items():
        if check.ordered:
            faults[f"{name}: sides swapped"] = (name, lambda values: values[:, ::-1])
            continue
        for j in range(check.members):
            scale = np.ones(check.members)
            scale[j] += 1e-6
            faults[f"{name}: member {j + 1} scaled"] = (name, lambda values, scale=scale: values * scale)
    return faults


MEMBER_FAULTS = member_faults()
GATE_SCENARIOS = {"gate family": scenario(), "50-degree pair": pair_scenario()}


@pytest.mark.parametrize(
    "fault, where",
    [
        (fault, where)
        for fault, (name, _) in MEMBER_FAULTS.items()
        for where, s in GATE_SCENARIOS.items()
        if name in s.checks
    ],
)
def test_member_fault_fails_exactly_its_check(monkeypatch, fault, where):
    name, change = MEMBER_FAULTS[fault]
    plant_members(monkeypatch, name, change)
    assert failures(GATE_SCENARIOS[where]) == {name}


def test_every_check_row_has_a_gate_row():
    # An identity row is covered by its generated rows, one per member it
    # declares (one for an ordered row), run on the pair, where every check
    # applies; every other row by a hand-written fault.  A row added without
    # either fails here.
    generated = Counter(name for name, _ in MEMBER_FAULTS.values())
    handwritten = set().union(*(failing for _, failing in FAULTS.values()))
    for name, check in checks.CHECKS.items():
        if check.members:
            assert generated[name] == (1 if check.ordered else check.members), name
            assert name in GATE_SCENARIOS["50-degree pair"].checks
        else:
            assert name in handwritten, name


@pytest.mark.parametrize("name", [name for name, check in checks.CHECKS.items() if check.members])
def test_identity_rows_return_one_column_per_declared_member(name):
    s = GATE_SCENARIOS["50-degree pair"]
    family = Family.of([Subspace.from_spanning(spec.spanning) for spec in s.subspaces])
    values = checks.CHECKS[name].fn(checks.CheckInputs(family, s.k_max, []))
    assert values.shape == (s.k_max, checks.CHECKS[name].members)
