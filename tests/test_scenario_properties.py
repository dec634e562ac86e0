"""Property test of the scenario format: every valid scenario, written by
format_scenario, parses back to itself field by field (arrays bit for bit),
and writing the parsed scenario gives the same text again."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from projbounds import format_scenario, parse_scenario
from projbounds.checks import CHECKS, applicable_checks
from projbounds.scenario import METHODS, MODES, Scenario, SubspaceSpec

SCALARS = ("name", "ambient_dim", "mode", "method", "k_max", "seed", "random_starts", "checks")
finite = st.floats(allow_nan=False, allow_infinity=False)
# A name that its own name: line reads back: one nonempty line, no '#', no
# leading or trailing whitespace.
names = st.text(min_size=1, max_size=12).filter(lambda s: [s] == s.split("#", 1)[0].strip().splitlines())


def vectors(n, count):
    return st.lists(st.lists(finite, min_size=n, max_size=n).map(np.array), min_size=count, max_size=count)


@st.composite
def scenarios(draw):
    n, r = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    mode = draw(st.sampled_from(MODES))
    method = draw(st.sampled_from([m for m in METHODS if mode == "linear" or m != "product_alternating"]))
    subspaces = []
    for _ in range(r):
        columns = draw(vectors(n, draw(st.integers(0, n))))
        spanning = np.array(columns).T if columns else np.zeros((n, 0))
        anchor = draw(vectors(n, 1))[0] if mode == "affine" else None
        subspaces.append(SubspaceSpec(spanning=spanning, anchor=anchor))
    starts = draw(vectors(n, draw(st.integers(0, 3))))
    random_starts = draw(st.integers(0, 3))
    allowed = [c for c in applicable_checks(r) if starts or random_starts or not CHECKS[c].needs_start]
    checks = tuple(draw(st.lists(st.sampled_from(allowed), unique=True)))
    return Scenario(name=draw(names), ambient_dim=n, subspaces=subspaces, mode=mode, method=method,
                    k_max=draw(st.integers(1, 50)), seed=draw(st.integers(0, 2**32 - 1)), starts=starts,
                    random_starts=random_starts, checks=checks)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=150, deadline=None, database=None)
@given(s=scenarios())
def test_format_then_parse_gives_the_scenario_back(s):
    text = format_scenario(s)
    back = parse_scenario(text)
    for key in SCALARS:
        assert getattr(back, key) == getattr(s, key), key
    assert len(back.subspaces) == len(s.subspaces)
    for a, b in zip(s.subspaces, back.subspaces):
        assert same_bits(a.spanning, b.spanning)
        assert (a.anchor is None and b.anchor is None) or same_bits(a.anchor, b.anchor)
    assert len(back.starts) == len(s.starts)
    assert all(same_bits(x, y) for x, y in zip(s.starts, back.starts))
    assert format_scenario(back) == text
