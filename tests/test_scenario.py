import dataclasses

import numpy as np
import pytest

from projbounds import (
    InputError,
    Subspace,
    cos_two,
    format_scenario,
    friedrichs_gram,
    generate_random,
    generate_two_subspace,
    parse_scenario,
)
from projbounds.checks import CHECKS
from projbounds.scenario import Scenario, SubspaceSpec, validate_scenario

MINIMAL = """\
projscenario v1
name: minimal
ambient_dim: 2
subspace:
span:
1 0
subspace:
span:
0 1
"""

AFFINE = """\
projscenario v1
name: corner
ambient_dim: 2
mode: affine
method: cyclic
k_max: 4
subspace:
span:
1 0
anchor: 0 1
subspace:
span:
0 1
anchor: 2 0
starts:
0 0
"""

HEAD = "projscenario v1\nambient_dim: 2\n"
# Two lines of R^2 on lines 3-8 after HEAD; an appended line is line 9.
PAIR = "subspace:\nspan:\n1 0\nsubspace:\nspan:\n0 1\n"
SECOND_AFFINE = "subspace:\nspan:\n0 1\nanchor: 2 0\n"
AFFINE_PAIR = "mode: affine\nsubspace:\nspan:\n1 0\nanchor: 0 1\n" + SECOND_AFFINE


class TestParse:
    def test_minimal_linear(self):
        s = parse_scenario(MINIMAL)
        assert s.name == "minimal"
        assert s.r == 2
        assert s.mode == "linear" and s.method == "simultaneous"
        assert s.k_max == 10  # default
        assert s.subspaces[0].spanning.shape == (2, 1)

    def test_missing_keys_take_the_dataclass_defaults(self):
        s = parse_scenario(MINIMAL.replace("name: minimal\n", ""))
        fields = {f.name: f for f in dataclasses.fields(Scenario)}
        for key in ("name", "mode", "method", "k_max", "seed", "random_starts", "checks"):
            assert getattr(s, key) == fields[key].default
        assert s.name == "unnamed"

    def test_affine_with_anchors_and_starts(self):
        s = parse_scenario(AFFINE)
        assert s.mode == "affine"
        assert np.allclose(s.subspaces[0].anchor, [0.0, 1.0])
        assert len(s.starts) == 1

    def test_comments_and_blank_lines(self):
        text = MINIMAL.replace("name: minimal", "name: minimal  # a comment\n\n# full line comment")
        assert parse_scenario(text).name == "minimal"

    def test_missing_header(self):
        with pytest.raises(InputError, match="header"):
            parse_scenario("name: x\n")

    def test_affine_missing_anchor(self):
        text = AFFINE.replace("anchor: 2 0\n", "")
        with pytest.raises(InputError, match="anchor required"):
            parse_scenario(text)

    def test_anchor_in_linear_mode_rejected(self):
        text = MINIMAL.replace("span:\n1 0\n", "span:\n1 0\nanchor: 0 0\n")
        with pytest.raises(InputError, match="affine"):
            parse_scenario(text)

    def test_k_max_zero_rejected(self):
        with pytest.raises(InputError, match="k_max"):
            parse_scenario(MINIMAL + "k_max: 0\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            parse_scenario(MINIMAL + "seed: -1\n")

    def test_row_length_mismatch(self):
        with pytest.raises(InputError, match="length"):
            parse_scenario(MINIMAL.replace("1 0", "1 0 0"))

    def test_unknown_key(self):
        with pytest.raises(InputError, match="unknown key"):
            parse_scenario(MINIMAL + "bogus: 3\n")

    def test_unknown_check(self):
        with pytest.raises(InputError, match="unknown check"):
            parse_scenario(MINIMAL + "checks: norm_chain sparkle\n")

    def test_kw_requires_pair(self):
        text = MINIMAL + "subspace:\nspan:\n1 1\nchecks: kw\n"
        with pytest.raises(InputError, match="exactly two"):
            parse_scenario(text)

    def test_single_subspace_rejected(self):
        text = "projscenario v1\nambient_dim: 2\nsubspace:\nspan:\n1 0\n"
        with pytest.raises(InputError, match="two subspaces"):
            parse_scenario(text)

    def test_numeric_row_outside_block(self):
        with pytest.raises(InputError, match="numeric row"):
            parse_scenario("projscenario v1\nambient_dim: 2\n1 0\n")

    def test_nonfinite_row_rejected_with_line(self):
        text = MINIMAL.replace("0 1", "nan 1")
        with pytest.raises(InputError, match="finite"):
            parse_scenario(text)

    def test_ambient_dim_required_before_rows(self):
        text = "projscenario v1\nsubspace:\nspan:\n1 0\nambient_dim: 2\n"
        with pytest.raises(InputError, match="ambient_dim"):
            parse_scenario(text)

    @pytest.mark.parametrize("repeat", ["span:\n0 1\n", "anchor: 0 2\n"])
    def test_second_span_or_anchor_in_one_block_names_its_line(self, repeat):
        # A subspace: forgotten between two spans must not merge them into one subspace.
        text = HEAD + "mode: affine\nsubspace:\nspan:\n1 0\nanchor: 0 1\n" + repeat + SECOND_AFFINE
        with pytest.raises(InputError) as excinfo:
            parse_scenario(text)
        assert str(excinfo.value) == f"line 8: second {repeat.split(':')[0]} in subspace 1"

    def test_anchor_before_span_and_rows_after_it(self):
        text = HEAD + "mode: affine\nsubspace:\nanchor: 0 1\nspan:\n1 0\nanchor: 0 1\n"
        with pytest.raises(InputError, match="^line 8: second anchor in subspace 1$"):
            parse_scenario(text + SECOND_AFFINE)
        text = HEAD + "mode: affine\nsubspace:\nanchor: 0 1\nspan:\n1 0\n0 1\n"
        s = parse_scenario(text + SECOND_AFFINE)
        assert np.array_equal(s.subspaces[0].spanning, np.eye(2))
        assert np.array_equal(s.subspaces[0].anchor, [0.0, 1.0])
        text = HEAD + "mode: affine\nsubspace:\nspan:\n1 0\nanchor: 0 1\n0 1\n"
        assert np.array_equal(parse_scenario(text + SECOND_AFFINE).subspaces[0].spanning, np.eye(2))

    def test_starts_blocks_accumulate_and_last_key_wins(self):
        s = parse_scenario(HEAD + "k_max: 3\nstarts:\n1 0\n" + PAIR + "starts:\n0 1\nk_max: 4\n")
        assert [list(x) for x in s.starts] == [[1.0, 0.0], [0.0, 1.0]]
        assert s.k_max == 4

    def test_parse_from_path(self, tmp_path):
        p = tmp_path / "sc.txt"
        p.write_text(MINIMAL)
        assert parse_scenario(p).name == "minimal"

    def test_line_numbers_in_errors(self):
        text = MINIMAL.replace("0 1", "0 1 1")
        with pytest.raises(InputError, match="line 9"):
            parse_scenario(text)


class TestFormatRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL, AFFINE])
    def test_round_trip(self, text):
        s1 = parse_scenario(text)
        s2 = parse_scenario(format_scenario(s1))
        assert s1.name == s2.name
        assert s1.mode == s2.mode and s1.method == s2.method
        assert s1.k_max == s2.k_max and s1.seed == s2.seed
        assert s1.checks == s2.checks
        assert len(s1.subspaces) == len(s2.subspaces)
        for a, b in zip(s1.subspaces, s2.subspaces):
            assert np.array_equal(a.spanning, b.spanning)
            if a.anchor is None:
                assert b.anchor is None
            else:
                assert np.array_equal(a.anchor, b.anchor)
        for x, y in zip(s1.starts, s2.starts):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", ["run # 1", "  padded ", "two\nlines", "", "tail\r", "sep\x1crow"])
    def test_a_name_its_line_cannot_carry_is_rejected(self, name):
        s = dataclasses.replace(parse_scenario(MINIMAL), name=name)
        with pytest.raises(InputError) as excinfo:
            format_scenario(s)
        assert str(excinfo.value) == (
            f"name must be one nonempty line with no '#' and no outer whitespace, got {name!r}")

    def test_round_trip_preserves_generated_floats_exactly(self):
        s1 = generate_two_subspace(37.5, 6, 2, seed=13)
        s2 = parse_scenario(format_scenario(s1))
        for a, b in zip(s1.subspaces, s2.subspaces):
            assert np.array_equal(a.spanning, b.spanning)


class TestGenerators:
    def test_two_subspace_orthogonal(self):
        s = generate_two_subspace(90.0, 2, 0, seed=0)
        subs = [Subspace.from_spanning(spec.spanning) for spec in s.subspaces]
        assert cos_two(*subs).value <= 1e-10

    def test_two_subspace_planted_angle(self):
        s = generate_two_subspace(60.0, 2, 0, seed=1)
        subs = [Subspace.from_spanning(spec.spanning) for spec in s.subspaces]
        assert abs(cos_two(*subs).value - 0.5) <= 1e-10

    def test_two_subspace_with_shared_part(self):
        from projbounds import intersection

        s = generate_two_subspace(60.0, 5, 2, seed=2)
        subs = [Subspace.from_spanning(spec.spanning) for spec in s.subspaces]
        assert abs(cos_two(*subs).value - np.cos(np.deg2rad(60.0))) <= 1e-10
        assert intersection(subs).dim == 2

    def test_two_subspace_angle_grid(self):
        for theta in range(5, 95, 5):
            s = generate_two_subspace(float(theta), 6, 1, seed=theta)
            subs = [Subspace.from_spanning(spec.spanning) for spec in s.subspaces]
            assert abs(cos_two(*subs).value - np.cos(np.deg2rad(theta))) <= 1e-9

    def test_two_subspace_parameter_validation(self):
        with pytest.raises(InputError):
            generate_two_subspace(0.0, 4, 0, seed=0)
        with pytest.raises(InputError):
            generate_two_subspace(91.0, 4, 0, seed=0)
        with pytest.raises(InputError):
            generate_two_subspace(60.0, 3, 2, seed=0)

    def test_random_determinism(self):
        a = generate_random(3, 10, [4, 4, 4], seed=7)
        b = generate_random(3, 10, [4, 4, 4], seed=7)
        for sa, sb in zip(a.subspaces, b.subspaces):
            assert np.array_equal(sa.spanning, sb.spanning)

    def test_random_full_dims_is_degenerate(self):
        s = generate_random(3, 4, [4, 4, 4], seed=5)
        subs = [Subspace.from_spanning(spec.spanning) for spec in s.subspaces]
        assert friedrichs_gram(subs).degenerate

    def test_random_pair_not_aligned(self):
        s = generate_random(2, 6, [3, 3], seed=1)
        subs = [Subspace.from_spanning(spec.spanning) for spec in s.subspaces]
        res = cos_two(*subs)
        assert not res.degenerate
        assert res.value < 1.0

    def test_random_parameter_validation(self):
        with pytest.raises(InputError):
            generate_random(1, 5, [2], seed=0)
        with pytest.raises(InputError):
            generate_random(2, 5, [2, 6], seed=0)
        with pytest.raises(InputError):
            generate_random(2, 5, [2], seed=0)


def _spec(rows, line=0):
    return SubspaceSpec(spanning=np.zeros((rows, 1)), line=line)


# Every message scenario input can fail with, exactly, ``line N:`` included.
ERRORS = [
    ("", "empty document; expected header 'projscenario v1'"),
    ("# only a comment\n\n", "empty document; expected header 'projscenario v1'"),
    ("name: x\n", "line 1: expected header 'projscenario v1', got 'name: x'"),
    ("\n# c\nprojscenario v2\n", "line 3: expected header 'projscenario v1', got 'projscenario v2'"),
    ("projscenario v1\nname: x\n", "ambient_dim is required"),
    (HEAD + "subspace: 1\n", "line 3: subspace takes no inline value"),
    (HEAD + "span:\n", "line 3: span outside a subspace block"),
    (HEAD + "subspace:\nspan: 1 0\n", "line 4: span takes no inline value; rows follow on their own lines"),
    (HEAD + "anchor: 0 0\n", "line 3: anchor outside a subspace block"),
    (HEAD + PAIR + "starts: 1 1\n", "line 9: starts takes no inline value; rows follow on their own lines"),
    (HEAD + "bogus: 3\n", "line 3: unknown key 'bogus'"),
    # Any line holding a colon is a key line, its key the exact text before it.
    (HEAD + "k-max: 3\n", "line 3: unknown key 'k-max'"),
    (HEAD + "kmax2: 3\n", "line 3: unknown key 'kmax2'"),
    (HEAD + "Name : x\n", "line 3: unknown key 'Name '"),
    (HEAD + "subspace:\nspan:\n1: 0\n", "line 5: unknown key '1'"),
    (HEAD + "1 0\n", "line 3: numeric row outside a span/starts block"),
    (HEAD + "subspace:\n1 0\n", "line 4: numeric row outside a span/starts block"),
    (HEAD + PAIR + "seed: 1\n1 0\n", "line 10: numeric row outside a span/starts block"),
    ("projscenario v1\nsubspace:\nspan:\n1 0\n", "line 4: ambient_dim must be declared before vector rows"),
    (HEAD + "subspace:\nspan:\n1 0 0\n", "line 5: span row has length 3, expected ambient_dim 2"),
    (HEAD + PAIR + "starts:\n1\n", "line 10: starts row has length 1, expected ambient_dim 2"),
    (HEAD + "subspace:\nspan:\n1 0\nsubspace:\nsubspace:\nspan:\n0 1\n", "line 6: subspace 2 has no span block"),
    (HEAD + "k_max: ten\n", "line 3: k_max expects an integer, got 'ten'"),
    ("projscenario v1\nambient_dim: 2.5\n", "line 2: ambient_dim expects an integer, got '2.5'"),
    (HEAD + "name:\n", "line 3: name expects a value"),
    (HEAD + "mode:   # unset\n", "line 3: mode expects a value"),
    (HEAD + "subspace:\nspan:\n1 x\n", "line 5: expected a numeric row, got '1 x'"),
    (HEAD + "subspace:\nspan:\nto do\n", "line 5: expected a numeric row, got 'to do'"),
    (HEAD + "subspace:\nspan:\n1 inf\n", "line 5: numeric rows must be finite"),
    (HEAD + "subspace:\nanchor: 0 y\n", "line 4: expected a numeric row, got '0 y'"),
    (HEAD + PAIR + "seed: -1\n", "seed must be nonnegative, got -1"),
    ("projscenario v1\nambient_dim: 0\nsubspace:\nspan:\nsubspace:\nspan:\n", "ambient_dim must be at least 1"),
    (HEAD + PAIR + "mode: spiral\n", "mode must be one of ('linear', 'affine'), got 'spiral'"),
    (HEAD + PAIR + "method: newton\n",
     "method must be one of ('simultaneous', 'cyclic', 'product_alternating'), got 'newton'"),
    (HEAD + PAIR + "k_max: 0\n", "k_max must be at least 1"),
    (HEAD + PAIR + "random_starts: -1\n", "random_starts must be nonnegative"),
    (HEAD + "subspace:\nspan:\n1 0\n", "at least two subspaces are required, got 1"),
    (HEAD + "mode: affine\n" + PAIR, "line 4: anchor required for affine mode (subspace 1)"),
    (HEAD + AFFINE_PAIR.replace("anchor: 2 0", "anchor: 2 0 0"), "line 8: subspace 2 anchor must have length 2"),
    (HEAD + "subspace:\nspan:\n1 0\nanchor: 0 0\nsubspace:\nspan:\n0 1\n",
     "line 3: anchor only allowed in affine mode (subspace 1)"),
    (HEAD + PAIR + "checks: norm_chain sparkle\n",
     f"unknown check 'sparkle'; valid checks: {' '.join(CHECKS)}"),
    (HEAD + PAIR + "subspace:\nspan:\n1 1\nchecks: kw\n", "check 'kw' requires exactly two subspaces"),
    (HEAD + PAIR + "checks: kw kw norm_chain\n", "check 'kw' is listed more than once"),
    (HEAD + PAIR + "checks: bounds\n", "check 'bounds' requires at least one start"),
    (HEAD + "method: product_alternating\n" + AFFINE_PAIR,
     "method product_alternating requires linear mode"),
    (Scenario(ambient_dim=2, subspaces=[_spec(3), _spec(2)]), "subspace 1 spanning rows must have length 2"),
    (Scenario(ambient_dim=2, subspaces=[_spec(2), _spec(1, line=7)]),
     "line 7: subspace 2 spanning rows must have length 2"),
    (Scenario(ambient_dim=2, subspaces=[_spec(2), SubspaceSpec(spanning=np.zeros(2))]),
     "subspace 2 spanning rows must have length 2"),
    (Scenario(ambient_dim=2, subspaces=[_spec(2), _spec(2)], starts=[np.zeros(2), np.zeros(3)]),
     "start 2 must have length 2"),
]


class TestErrorMessages:
    @pytest.mark.parametrize("source, message", ERRORS, ids=[message for _, message in ERRORS])
    def test_exact_message(self, source, message):
        with pytest.raises(InputError) as excinfo:
            if isinstance(source, Scenario):
                validate_scenario(source)
            else:
                parse_scenario(source)
        assert str(excinfo.value) == message
