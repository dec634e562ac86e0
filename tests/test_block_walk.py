"""Every trace producer and the Pierra check walk all starts as one block.

Each trace must equal its start walked alone by the dense oracle of
``helpers.dense_trace_errors``, to rounding, whatever the other starts in
the block; permuting the starts permutes the traces; and the Pierra
residual of a block is the largest of its starts' own residuals.
"""

import numpy as np
import pytest

from projbounds import (
    AffineFamily,
    AffineSubspace,
    Family,
    InputError,
    Subspace,
    build_product,
    cyclic_affine,
    cyclic_operator,
    iterate,
    pierra_lift_residual,
    simultaneous_affine,
    simultaneous_operator,
)
from projbounds.productspace import product_alternating_traces
from helpers import dense_trace_errors, shared_and_near_spans

N, K_MAX = 12, 12
METHODS = ["simultaneous", "cyclic", "product_alternating"]
# Starts far apart in scale, so that a column mixed into another shows.
SCALES = [1.0, 1e-3, 1e3, 1.0, 7.0]


def linear_family(seed):
    """Three members of R^12 sharing an exact two-dimensional part."""
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((N, 2))
    return Family.of(
        Subspace.from_spanning(np.hstack([common, rng.standard_normal((N, d))]))
        for d in (3, 4, 2)
    )


def affine_family(seed):
    """The linear family's members through points of one common point's
    translates, so the sets meet."""
    rng = np.random.default_rng([seed, 1])
    p = rng.standard_normal(N)
    return AffineFamily.of(
        AffineSubspace(anchor=p + L.basis @ rng.standard_normal(L.dim), direction=L)
        for L in linear_family(seed)
    )


def starts_for(seed):
    rng = np.random.default_rng([seed, 2])
    return [c * rng.standard_normal(N) for c in SCALES]


def traces(method, family, starts):
    if isinstance(family, AffineFamily):
        sweep = simultaneous_affine if method == "simultaneous" else cyclic_affine
        return sweep(family, starts, K_MAX)
    if method == "product_alternating":
        return product_alternating_traces(build_product(family), starts, K_MAX)
    op = simultaneous_operator if method == "simultaneous" else cyclic_operator
    return iterate(op(family), starts, K_MAX)


CASES = [(m, "linear") for m in METHODS] + [(m, "affine") for m in METHODS[:2]]


def case(method, mode, seed):
    return (linear_family if mode == "linear" else affine_family)(seed)


def scale(family, x):
    """What a trace's errors scale with: ||x||, or ||x - P_V(0)|| on affine sets."""
    anchor = family.target.anchor if isinstance(family, AffineFamily) else 0.0
    return np.linalg.norm(x - anchor)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("method,mode", CASES)
def test_each_trace_is_its_start_walked_alone(method, mode, seed):
    family, starts = case(method, mode, seed), starts_for(seed)
    block = traces(method, family, starts)
    assert len(block) == len(starts)
    for x, trace in zip(starts, block):
        assert np.array_equal(trace.start, x)
        oracle = dense_trace_errors(method, family, x, K_MAX)
        assert np.abs(trace.errors - oracle).max() <= 1e-13 * scale(family, x)
        [alone] = traces(method, family, [x])
        assert np.abs(trace.bounds - alone.bounds).max() <= 1e-15 * alone.bounds[0]


@pytest.mark.parametrize("method,mode", CASES)
def test_permuting_the_starts_permutes_the_traces(method, mode):
    family, starts = case(method, mode, 0), starts_for(0)
    order = [3, 0, 4, 2, 1]
    block = traces(method, family, starts)
    permuted = traces(method, family, [starts[j] for j in order])
    for j, trace in zip(order, permuted):
        assert np.array_equal(trace.start, block[j].start)
        tol = 1e-13 * scale(family, starts[j])
        assert np.abs(trace.errors - block[j].errors).max() <= tol
        assert np.abs(trace.bounds - block[j].bounds).max() <= tol


def test_no_starts_give_no_traces():
    assert iterate(simultaneous_operator(linear_family(0)), [], 3) == []


def test_a_start_of_the_wrong_length_is_rejected():
    starts = starts_for(0) + [np.ones(N + 1)]
    with pytest.raises(InputError):
        iterate(simultaneous_operator(linear_family(0)), starts, 3)


def shared_and_near(theta):
    spans = shared_and_near_spans(np.random.default_rng(1), theta, N, 2, 3)
    return Family.of(Subspace.from_spanning(S) for S in spans)


@pytest.mark.parametrize(
    "family", [linear_family(0), shared_and_near(1e-8)], ids=["shared part", "near-shared at 1e-8"]
)
def test_block_pierra_residual_is_the_worst_start(family):
    # Beside near-shared directions the residual sits far above rounding
    # (about 1e-15 / theta), so there the two agree as numbers, not as
    # rounding noise.
    model, starts = build_product(family), starts_for(1)
    singles = [pierra_lift_residual(model, [x], range(K_MAX + 1)) for x in starts]
    block = pierra_lift_residual(model, starts, range(K_MAX + 1))
    assert abs(block - max(singles)) <= 1e-13 * max(np.linalg.norm(x) for x in starts)
