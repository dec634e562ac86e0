"""Acceptance suite: the project's exit criteria, one test per criterion.

Each test prints one PASS/FAIL line (see conftest).  Instance batteries
are deterministic: seeds are frozen here and the geometry they produce was
verified against the independent oracles in the per-module test files.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from projbounds import (
    AffineSubspace,
    build_product,
    chain_residual_profile,
    cos_CD,
    cos_two,
    cyclic_affine,
    cyclic_operator,
    error_operator_norm,
    friedrichs_gram,
    intersection,
    intersection_affine,
    iterate,
    kw_bound,
    optimal_bound_simultaneous,
    pierra_lift_residual,
    simultaneous_affine,
    simultaneous_operator,
    spectral_norm,
    verify_error_identity,
)
from helpers import (
    chain_gaps,
    dense_C,
    dense_D,
    dense_error_operator,
    lines_exact_60,
    planted_pair,
    random_family,
    random_subspace,
    triple_at_120,
)


def criterion(label):
    def mark(fn):
        fn._criterion_label = label
        return fn

    return mark


@pytest.fixture(scope="module")
def pair_instances():
    """50 seeded pairs with n <= 50: planted angles and raw random dims."""
    pairs = []
    for i in range(50):
        rng = np.random.default_rng(1000 + i)
        n = int(rng.integers(3, 51))
        if i % 2 == 0:
            theta = float(rng.uniform(5.0, 90.0))
            shared = int(rng.integers(0, min(4, n - 2) + 1))
            pairs.append(planted_pair(rng, theta, n, shared))
        else:
            d1 = int(rng.integers(1, n))
            d2 = int(rng.integers(1, n))
            pairs.append((random_subspace(rng, n, d1), random_subspace(rng, n, d2)))
    return pairs


@pytest.fixture(scope="module")
def family_instances():
    """50 seeded families with r in 2..5 and n <= 30, all non-degenerate."""
    families = []
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        r = 2 + i % 4
        n = int(rng.integers(max(3, r), 31))
        subs = random_family(rng, r, n, dims=[int(rng.integers(1, n)) for _ in range(r)])
        fr = friedrichs_gram(subs)
        assert not fr.degenerate
        q = (r - 1.0) / r * fr.value + 1.0 / r
        families.append({"subs": subs, "q": q})
    return families


@criterion("criterion 1: two-subspace alternating norm equals cos^(2k-1)")
def test_criterion_1_alternating_norm_exactness(pair_instances):
    t0 = time.perf_counter()
    for M1, M2 in pair_instances:
        T = cyclic_operator([M1, M2])
        for k in range(1, 11):
            assert abs(error_operator_norm(T, k) - kw_bound([M1, M2], k)) <= 1e-9
    assert time.perf_counter() - t0 < 10.0


@criterion("criterion 2: six-member norm chain agrees within 1e-8")
def test_criterion_2_norm_chain(family_instances):
    t0 = time.perf_counter()
    for instance in family_instances:
        profile = chain_residual_profile(instance["subs"], range(1, 11))
        for k, gaps in zip(range(1, 11), chain_gaps(profile)):
            assert gaps.max() <= 1e-8, f"k={k}"
    assert time.perf_counter() - t0 < 60.0


@criterion("criterion 3: closed-form fixtures at 60 and 120 degrees")
def test_criterion_3_closed_form_fixtures():
    pair = lines_exact_60()
    assert abs(optimal_bound_simultaneous(pair, 1) - 0.75) <= 1e-10
    assert abs(cos_CD(build_product(pair)) ** 2 - 0.75) <= 1e-10
    triple = triple_at_120()
    assert abs(friedrichs_gram(triple).value - 0.25) <= 1e-10
    assert abs(optimal_bound_simultaneous(triple, 1) - 0.5) <= 1e-10


@criterion("criterion 4: q^k is attained by the top singular start and never beaten")
def test_criterion_4_optimality_tightness(family_instances):
    for instance in family_instances:
        subs, q = instance["subs"], instance["q"]
        T = simultaneous_operator(subs)
        _, _, Vt = np.linalg.svd(dense_error_operator(T))
        [star] = iterate(T, [Vt[0]], 10)
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(3):
            x = rng.standard_normal(subs[0].ambient_dim)
            samples += iterate(T, [x / np.linalg.norm(x)], 10)
        for k in range(1, 11):
            assert star.errors[k] >= q**k - 1e-8
            for trace in samples:
                assert trace.errors[k] <= q**k + 1e-10


@criterion("criterion 5: power identity residual below 1e-9 up to k = 20")
def test_criterion_5_power_identity(family_instances):
    for instance in family_instances:
        subs = instance["subs"]
        for op in (simultaneous_operator(subs), cyclic_operator(subs)):
            for k in range(1, 21):
                assert verify_error_identity(op, k) <= 1e-9


@criterion("criterion 6: alternating bound never exceeds the simultaneous bound")
def test_criterion_6_method_ordering(pair_instances):
    for M1, M2 in pair_instances:
        c = cos_two(M1, M2).value
        for k in range(1, 11):
            first = kw_bound([M1, M2], k)
            second = optimal_bound_simultaneous([M1, M2], k)
            assert first <= second + 1e-12
            if c <= 1.0 - 1e-6:
                assert second - first >= 1e-12


@criterion("criterion 7: product-space lift reproduces the averaged iteration")
def test_criterion_7_pierra_lift(family_instances):
    rng = np.random.default_rng(77)
    for i in range(50):
        subs = family_instances[i % len(family_instances)]["subs"]
        x = rng.standard_normal(subs[0].ambient_dim)
        k = int(rng.integers(0, 11))
        assert pierra_lift_residual(subs, [x], k) <= 1e-9


@criterion("criterion 8: affine runs match translated linear runs; corner bound attained")
def test_criterion_8_affine_translation_and_bound():
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        r = int(rng.integers(2, 5))
        n = int(rng.integers(3, 13))
        directions = random_family(rng, r, n)
        p = rng.standard_normal(n)
        fam = [
            AffineSubspace(
                anchor=p + (L.basis @ rng.standard_normal(L.dim) if L.dim else 0.0),
                direction=L,
            )
            for L in directions
        ]
        x0 = rng.standard_normal(n)
        v = intersection_affine(fam).anchor
        for affine_run, op in (
            (simultaneous_affine, simultaneous_operator),
            (cyclic_affine, cyclic_operator),
        ):
            [affine_trace] = affine_run(fam, [x0], 8)
            [linear_trace] = iterate(op(directions), [x0 - v], 8)
            assert np.abs(affine_trace.errors - linear_trace.errors).max() <= 1e-10
    # perpendicular-lines fixture: the simultaneous bound is attained at k = 1
    fam = [
        AffineSubspace.from_point_span(np.array([0.0, 1.0]), np.array([[1.0], [0.0]])),
        AffineSubspace.from_point_span(np.array([2.0, 0.0]), np.array([[0.0], [1.0]])),
    ]
    [trace] = simultaneous_affine(fam, [np.array([0.0, 0.0])], 3)
    assert abs(trace.errors[1] - trace.bounds[1]) <= 1e-8


@criterion("criterion 9: all four not-aligned scalars stay below one")
def test_criterion_9_not_aligned_scalars(family_instances):
    for instance in family_instances:
        subs = instance["subs"]
        fr = friedrichs_gram(subs)
        T = simultaneous_operator(subs)
        model = build_product(subs)
        C, D = dense_C(model), dense_D(model)
        P_CD = intersection([C, D]).projector()
        alternating = spectral_norm(D.projector() @ C.projector() - P_CD)
        assert fr.raw < 1.0
        assert spectral_norm(dense_error_operator(T)) < 1.0
        assert alternating < 1.0
        assert cos_CD(model) < 1.0


@criterion("criterion 10: repeated verify runs emit byte-identical reports")
def test_criterion_10_determinism(tmp_path):
    outputs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        result = subprocess.run(
            [sys.executable, "-m", "projbounds", "verify",
             "--count", "100", "--seed", "0", "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert b'"failures": 0' in outputs[0]
