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


class TestParse:
    def test_minimal_linear(self):
        s = parse_scenario(MINIMAL)
        assert s.name == "minimal"
        assert s.r == 2
        assert s.mode == "linear" and s.method == "simultaneous"
        assert s.k_max == 10  # default
        assert s.subspaces[0].spanning.shape == (2, 1)

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

    def test_parse_from_path(self, tmp_path):
        p = tmp_path / "sc.txt"
        p.write_text(MINIMAL)
        assert parse_scenario(p).name == "minimal"
        assert parse_scenario(str(p)).name == "minimal"

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
        assert res.raw < 1.0

    def test_random_parameter_validation(self):
        with pytest.raises(InputError):
            generate_random(1, 5, [2], seed=0)
        with pytest.raises(InputError):
            generate_random(2, 5, [2, 6], seed=0)
        with pytest.raises(InputError):
            generate_random(2, 5, [2], seed=0)
