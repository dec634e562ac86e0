"""Property tests of the operator rate ||T - P_M||: it is a function of the
subspaces alone, so one rotation applied to every member leaves it
unchanged for both kinds, and the simultaneous rate q, a symmetric
function of the members, is unchanged by any reordering of them."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_family, rotation
from projbounds import Subspace, cyclic_operator, optimal_bound_simultaneous, simultaneous_operator

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


@settings(max_examples=60, deadline=None, database=None)
@given(seed=seeds, data=st.data())
def test_simultaneous_rate_invariant_under_permutation(seed, data):
    subs = family(np.random.default_rng(seed))
    order = data.draw(st.permutations(range(len(subs))))
    permuted = [subs[i] for i in order]
    assert abs(simultaneous_operator(permuted).rate - simultaneous_operator(subs).rate) <= TOL
