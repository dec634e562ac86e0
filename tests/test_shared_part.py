"""The one decision of what subspaces share: SHARED_SINE_TOL in R^n.

A pair at principal angles theta is one subspace when theta is at most the
threshold and two otherwise; either way the intersection passes every
containment test, and the product space sizes C intersect D by dim M.
"""

import numpy as np
import pytest

from projbounds import Family, Subspace, checks, intersection
from projbounds.runner import run_scenario
from projbounds.scenario import Scenario
from projbounds.subspaces import SHARED_SINE_TOL
from helpers import near_pair, shared_and_near_spans

THETAS = [10.0**e for e in range(-12, -5)]
SHAPES = [(30, 1), (30, 10), (300, 1), (300, 10), (300, 100)]
METHODS = ["simultaneous", "cyclic", "product_alternating"]


def run_near_pair(monkeypatch, theta, n, d, method):
    """The report of a run on a near pair, and the product models it built."""
    A, B = near_pair(np.random.default_rng([n, d]), theta, n, d)
    models = []
    real = checks.build_product

    def build_product(family):
        models.append(real(family))
        return models[-1]

    monkeypatch.setattr(checks, "build_product", build_product)
    s = Scenario.generated("near-pair", n, [A.basis, B.basis], 0, k_max=4, method=method)
    return run_scenario(s), models


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("theta", THETAS)
def test_near_pair_sweep(monkeypatch, theta, n, d, method):
    rep, models = run_near_pair(monkeypatch, theta, n, d, method)
    assert rep.error is None and models
    for model in models:
        assert model.CD.dim == model.family.intersection.dim
        assert model.family.intersection.dim == (d if theta <= SHARED_SINE_TOL else 0)
    if theta > SHARED_SINE_TOL:
        assert rep.all_passed(), [c for c in rep.check_outcomes if not c.passed]


@pytest.mark.parametrize("method", METHODS)
def test_sines_at_the_threshold(monkeypatch, method):
    theta = np.arcsin(SHARED_SINE_TOL)
    fam = Family.of(near_pair(np.random.default_rng(5), theta, 30, 10))
    assert all(S.contains(fam.intersection) for S in fam)
    run_near_pair(monkeypatch, theta, 30, 10, method)


def test_rounding_sines_of_one_subspace_are_shared():
    # two bases of one subspace differ by rounding sines of ~3e-11 at this size
    rng = np.random.default_rng(0)
    n, d = 1000, 300
    A = Subspace.from_spanning(rng.standard_normal((n, d)))
    B = Subspace.from_spanning(3.0 * A.basis @ rng.standard_normal((d, d)))
    assert intersection([A, B]).dim == d


def run_shared_and_near(theta, method):
    """A run on a pair of R^30 sharing 2 exact dimensions, with 5 more at
    principal angles ``theta``."""
    spans = shared_and_near_spans(np.random.default_rng(1), theta, 30, 2, 5)
    rep = run_scenario(Scenario.generated("shared-and-near", 30, spans, 0, k_max=4, method=method))
    assert rep.error is None
    assert Family.of(Subspace.from_spanning(S) for S in spans).intersection.dim == 2
    return rep


# M in R^n and C intersect D in R^(nr) are each determined only to about
# eps / theta next to the near-shared directions, and Pierra's anchor term
# compares the two: residual about 1e-15 / theta against a tolerance of
# 1e-9.  Not mended yet, and no tolerance is loosened for it (ROADMAP item
# 11: make the checks true for the family the program decided).
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="pierra_lift ~ 1e-15 / theta")
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("theta", [1e-10, 1e-8, 1e-7])
def test_exact_shared_part_beside_near_shared_directions(theta, method):
    rep = run_shared_and_near(theta, method)
    assert rep.all_passed(), [c for c in rep.check_outcomes if not c.passed]


@pytest.mark.parametrize("method", METHODS)
def test_exact_shared_part_beside_directions_at_1e_6(method):
    rep = run_shared_and_near(1e-6, method)
    assert rep.all_passed(), [c for c in rep.check_outcomes if not c.passed]
