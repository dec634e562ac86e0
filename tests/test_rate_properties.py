"""Property tests of the operator rate ||T - P_M||: it is a function of the
subspaces alone, so one rotation applied to every member leaves it
unchanged for both kinds, and the simultaneous rate q, a symmetric
function of the members, is unchanged by any reordering of them; so is
the product-space angle cos(C, D)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_family, rotation
from projbounds import (
    Subspace,
    build_product,
    cos_CD,
    cyclic_operator,
    error_operator_norm,
    optimal_bound_simultaneous,
    simultaneous_operator,
)
from projbounds.subspaces import Family

TOL = 1e-12
seeds = st.integers(0, 2**32 - 1)


def family(rng):
    return random_family(rng, int(rng.integers(2, 5)), int(rng.integers(2, 12)))


@settings(max_examples=60, deadline=None, database=None)
@given(seed=seeds)
def test_rates_invariant_under_a_common_rotation(seed):
    rng = np.random.default_rng(seed)
    subs = family(rng)
    U = rotation(rng, subs[0].ambient_dim)
    turned = [Subspace(U @ S.basis) for S in subs]
    for build in (simultaneous_operator, cyclic_operator):
        assert abs(build(turned).rate - build(subs).rate) <= TOL, build.__name__
    q, q_turned = optimal_bound_simultaneous(subs, 1), optimal_bound_simultaneous(turned, 1)
    assert abs(q_turned - q) <= TOL
    assert abs(cos_CD(build_product(turned)) - cos_CD(build_product(subs))) <= TOL


@settings(max_examples=60, deadline=None, database=None)
@given(seed=seeds, data=st.data())
def test_simultaneous_rate_invariant_under_permutation(seed, data):
    subs = family(np.random.default_rng(seed))
    order = data.draw(st.permutations(range(len(subs))))
    permuted = [subs[i] for i in order]
    assert abs(simultaneous_operator(permuted).rate - simultaneous_operator(subs).rate) <= TOL
    assert abs(cos_CD(build_product(permuted)) - cos_CD(build_product(subs))) <= TOL


def planted_family(rng, thick):
    """2 to 4 members of R^n holding one planted common part of dimension 1
    or 2, with member dimensions summing past n (``thick``) or not, so that
    C intersect D comes from D's side or from C's."""
    r, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
    n = int(rng.integers(r * (m + 1), r * (m + 1) + 8))
    low, high = (max(m + 1, n // r + 1), n) if thick else (m + 1, n // r + 1)
    common = rng.standard_normal((n, m))
    dims = rng.integers(low, high, size=r).tolist()
    return [Subspace.from_spanning(np.hstack([common, rng.standard_normal((n, d - m))])) for d in dims]


def product_and_error_norms(subs):
    """cos(C, D), and ||T^2 - P_M|| for the simultaneous and cyclic T."""
    norms = [error_operator_norm(build(subs), 2) for build in (simultaneous_operator, cyclic_operator)]
    return cos_CD(build_product(subs)), *norms


@settings(max_examples=60, deadline=None, database=None)
@given(seed=seeds, thick=st.booleans(), data=st.data())
def test_planted_common_part_invariant_under_rotation_and_permutation(seed, thick, data):
    rng = np.random.default_rng(seed)
    subs = planted_family(rng, thick)
    n = subs[0].ambient_dim
    assert (sum(S.dim for S in subs) > n) == thick
    assert build_product(subs).CD.dim == Family.of(subs).intersection.dim >= 1
    U = rotation(rng, n)
    turned = [Subspace(U @ S.basis) for S in subs]
    order = data.draw(st.permutations(range(len(subs))))
    permuted = [subs[i] for i in order]
    c, simultaneous, cyclic = product_and_error_norms(subs)
    c_turned, simultaneous_turned, cyclic_turned = product_and_error_norms(turned)
    assert max(abs(c_turned - c), abs(simultaneous_turned - simultaneous), abs(cyclic_turned - cyclic)) <= TOL
    # The cyclic product depends on the order of its factors; the mean does not.
    assert abs(cos_CD(build_product(permuted)) - c) <= TOL
    assert abs(error_operator_norm(simultaneous_operator(permuted), 2) - simultaneous) <= TOL
