"""The check table is the one source of check lists, and one run computes
each family's intersection once."""

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from projbounds import InputError, Subspace, angles, cli, generate_random, generate_two_subspace, subspaces
from projbounds.checks import CHECKS, Check, CheckInputs, residual
from projbounds.runner import DEFAULT_TOLERANCES, _battery_scenario, run_scenario, verify_battery
from projbounds.scenario import format_scenario
from helpers import chain_gaps, dense_chain_residual_profile


def table_checks(r):
    """Every check the table lets run on r subspaces, in table order."""
    return [name for name, check in CHECKS.items() if r == 2 or not check.pairs_only]


def verify_checks(r):
    """What verify runs: the same checks, pairs-only ones last."""
    names = table_checks(r)
    pairs = [n for n in names if CHECKS[n].pairs_only]
    return [n for n in names if n not in pairs] + pairs


def affine_pair(seed, method):
    """A planted 50-degree pair of R^8 made affine with a common point."""
    s = generate_two_subspace(50.0, 8, 2, seed=seed, k_max=6, method=method)
    rng = np.random.default_rng(seed)
    common = rng.standard_normal(s.ambient_dim)
    for spec in s.subspaces:
        spec.anchor = common + spec.spanning @ rng.standard_normal(spec.spanning.shape[1])
    s.mode = "affine"
    return s


def cli_check_names(tmp_path, command, scenario):
    path, out = tmp_path / "in.scenario", tmp_path / "out.json"
    path.write_text(format_scenario(scenario))
    assert cli.main([command, "--scenario", str(path), "--out", str(out)]) == 0
    return [c["check"] for c in json.loads(out.read_text())["check_outcomes"]]


class TestOneTable:
    def test_table_holds_the_known_checks(self):
        assert list(CHECKS) == ["norm_chain", "kw", "lemma_identity", "pierra_lift",
                                "compare", "bounds"]
        assert [n for n, c in CHECKS.items() if c.pairs_only] == ["kw", "compare"]
        assert [n for n, c in CHECKS.items() if c.needs_start] == ["pierra_lift", "bounds"]
        assert [c.tolerance for c in CHECKS.values()] == [1e-8, 1e-9, 1e-9, 1e-9, 1e-12, 1e-10]
        # the tolerance block: each check's row, in table order, then the rank policy
        assert list(DEFAULT_TOLERANCES) == [*CHECKS, "rank_relative_eps", "rank_absolute_floor"]
        assert all(DEFAULT_TOLERANCES[n] == c.tolerance for n, c in CHECKS.items())

    @pytest.mark.parametrize("r", [2, 3])
    def test_generate_random(self, r):
        s = generate_random(r, 6, [2] * r, seed=1)
        assert list(s.checks) == table_checks(r)

    def test_generate_two_subspace(self):
        assert list(generate_two_subspace(40.0, 5, 1, seed=0).checks) == table_checks(2)

    def test_battery(self):
        for index, child in enumerate(np.random.SeedSequence(3).spawn(6)):
            s = _battery_scenario(index, child, 4)
            assert list(s.checks) == table_checks(s.r)
        doc = verify_battery(seed=3, count=12, kmax_cap=3)
        assert {inst["r"] == 2 for inst in doc["instances"]} == {True, False}
        for inst in doc["instances"]:
            assert [c["check"] for c in inst["checks"]] == verify_checks(inst["r"])

    @pytest.mark.parametrize("r", [2, 3])
    def test_verify_scenario(self, tmp_path, r):
        s = generate_random(r, 6, [2] * r, seed=1, k_max=3)
        assert cli_check_names(tmp_path, "verify", s) == verify_checks(r)

    @pytest.mark.parametrize("r", [2, 3])
    def test_analyze(self, tmp_path, r):
        s = generate_random(r, 6, [2] * r, seed=1, k_max=3)
        expected = [n for n in s.checks if not CHECKS[n].needs_start]
        assert cli_check_names(tmp_path, "analyze", s) == expected


class TestPairsOnly:
    @pytest.mark.parametrize("name", ["kw", "compare"])
    def test_override_on_three_subspaces_rejected(self, name):
        s = generate_random(3, 6, [3, 3, 3], seed=1)
        with pytest.raises(InputError, match="exactly two"):
            run_scenario(replace(s, checks=(name,)))

    def test_unknown_override_rejected(self):
        s = generate_random(2, 4, [2, 2], seed=1)
        with pytest.raises(InputError, match="unknown check"):
            run_scenario(replace(s, checks=("sparkle",)))


def no_start_scenario(checks):
    s = generate_random(3, 6, [2, 2, 2], seed=1)
    s.random_starts = 0
    s.checks = checks
    return s


class TestNeedsStart:
    @pytest.mark.parametrize("name", ["pierra_lift", "bounds"])
    def test_run_scenario_rejects_no_starts(self, name):
        with pytest.raises(InputError, match=f"{name}.*at least one start"):
            run_scenario(no_start_scenario((name,)))
        s = no_start_scenario((name,))
        s.starts = [np.ones(6)]
        assert run_scenario(s).all_passed()

    def test_verify_scenario_without_starts_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no-starts.scenario"
        path.write_text(format_scenario(no_start_scenario(("norm_chain",))))
        assert cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["verify", "--scenario", str(path)]) == 2
        assert "at least one start" in capsys.readouterr().err


@pytest.fixture()
def intersection_calls(monkeypatch):
    calls = []
    original = subspaces.intersection

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(subspaces, "intersection", counting)
    return calls


class TestIntersectionsPerRun:
    @pytest.mark.parametrize("method", ["simultaneous", "cyclic", "product_alternating"])
    def test_linear_family(self, intersection_calls, method):
        s = generate_random(4, 10, [4, 4, 4, 4], seed=2, k_max=5, method=method)
        rep = run_scenario(s)
        assert rep.all_passed()
        assert len(intersection_calls) <= 2  # the family and the product pair (C, D)

    @pytest.mark.parametrize("method", ["simultaneous", "cyclic"])
    def test_affine_pair(self, intersection_calls, method):
        s = affine_pair(0, method)
        rep = run_scenario(replace(s, checks=tuple(verify_checks(2))))
        assert rep.all_passed() and len(rep.traces) == 2
        assert len(intersection_calls) <= 3


@pytest.fixture()
def friedrichs_calls(monkeypatch):
    """Counts of cos_two and friedrichs_gram calls, wherever they are imported."""
    calls = Counter()
    for name in ("cos_two", "friedrichs_gram"):
        original = getattr(angles, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("projbounds"):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
    return calls


def test_friedrichs_calls_do_not_grow_with_k_max(friedrichs_calls):
    counts = []
    for k_max in (5, 30):
        friedrichs_calls.clear()
        s = generate_two_subspace(50.0, 8, 2, seed=0, k_max=k_max)
        assert run_scenario(replace(s, checks=("kw", "compare"))).all_passed()
        counts.append(dict(friedrichs_calls))
    assert counts[0] == counts[1]
    assert counts[0]["cos_two"] >= 1 and counts[0]["friedrichs_gram"] >= 1


def test_readme_table_matches():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 6:
            rows[cells[0].strip("`")] = cells
    assert list(rows) == list(CHECKS)
    for name, check in CHECKS.items():
        _, _, tolerance, pairs_only, in_analyze, needs_start = rows[name]
        assert float(tolerance) == check.tolerance
        assert pairs_only == ("yes" if check.pairs_only else "no")
        assert in_analyze == ("no" if check.needs_start else "yes")
        assert needs_start == ("yes" if check.needs_start else "no")


@pytest.mark.parametrize("ordered, expected", [(False, 0.5), (True, 0.25)])
def test_identity_rows_share_one_residual_rule(monkeypatch, ordered, expected):
    # Equal members: the largest adjacent gap over every k (0.5).  Ordered
    # members must ascend: the largest excess of one over the next (0.25).
    members = np.array([[1.0, 1.5, 1.25], [2.0, 2.0, 2.0]])
    probe = Check(0.0, False, False, lambda run: members, 3, "k=1..{k_max}", ordered)
    monkeypatch.setitem(CHECKS, "probe", probe)
    run = CheckInputs(None, 2, [])
    assert residual("probe", run) == (expected, "k=1..2")
    assert run.chain_residuals is None


@pytest.mark.parametrize("s", [
    generate_random(3, 8, [3, 4, 3], seed=2, k_max=6),
    generate_two_subspace(50.0, 8, 2, 3, k_max=7),
    generate_random(3, 4, [4, 4, 4], seed=5, k_max=3),  # degenerate: every member is R^4
], ids=["family", "pair", "degenerate"])
def test_chain_residuals_are_each_links_worst_gap(s):
    # Entry j is the largest |member j+1 - member j| over k = 1..k_max, one
    # per link of the six-member chain, not one per k.
    rep = run_scenario(s)
    family = [Subspace.from_spanning(spec.spanning) for spec in s.subspaces]
    worst = chain_gaps(dense_chain_residual_profile(family, range(1, s.k_max + 1))).max(axis=0)
    assert len(rep.chain_residuals) == 5
    assert np.max(np.abs(np.array(rep.chain_residuals) - worst)) <= 1e-13
