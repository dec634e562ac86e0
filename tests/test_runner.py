import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from projbounds import Subspace, cli, generate_random, generate_two_subspace, parse_scenario
from projbounds.checks import applicable_checks
from projbounds.runner import (
    render_battery,
    render_report,
    report_to_dict,
    run_scenario,
    verify_battery,
)
from projbounds.scenario import Scenario, SubspaceSpec
from projbounds.subspaces import SHARED_SINE_TOL
from helpers import near_pair, strict_json

LINES_60 = """\
projscenario v1
name: two-lines-60
ambient_dim: 2
method: simultaneous
k_max: 5
seed: 11
checks: norm_chain kw lemma_identity pierra_lift compare bounds
subspace:
span:
1 0
subspace:
span:
0.5 0.8660254037844386
starts:
1 1
random_starts: 2
"""

AFFINE_CORNER = """\
projscenario v1
name: corner
ambient_dim: 2
mode: affine
method: simultaneous
k_max: 4
checks: bounds
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

INFEASIBLE = """\
projscenario v1
name: parallel
ambient_dim: 2
mode: affine
subspace:
span:
1 0
anchor: 0 0
subspace:
span:
1 0
anchor: 0 1
starts:
0 0
"""


class TestRunScenario:
    def test_two_lines_60(self):
        rep = run_scenario(parse_scenario(LINES_60))
        assert rep.q == pytest.approx(0.75, abs=1e-12)
        assert rep.friedrichs["gram_block"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert rep.friedrichs["norm_inversion"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert rep.friedrichs["principal_angle"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert max(rep.chain_residuals) <= 1e-8
        assert rep.all_passed()
        assert len(rep.traces) == 3  # one explicit start, two random
        assert len(rep.traces[0].errors) == 6

    def test_cyclic_kw_check(self):
        text = LINES_60.replace("method: simultaneous", "method: cyclic")
        rep = run_scenario(parse_scenario(text))
        kw = next(c for c in rep.check_outcomes if c.name == "kw")
        assert kw.passed and kw.residual <= 1e-9

    def test_product_alternating_traces(self):
        text = LINES_60.replace("method: simultaneous", "method: product_alternating")
        rep = run_scenario(parse_scenario(text))
        bounds_check = next(c for c in rep.check_outcomes if c.name == "bounds")
        assert bounds_check.passed
        # k = 0 bound equals the lifted start norm, sqrt(r) * ||x0||
        t = rep.traces[0]
        assert t.bounds[0] == pytest.approx(np.sqrt(2.0) * np.linalg.norm([1.0, 1.0]))

    def test_affine_bound_attained(self):
        rep = run_scenario(parse_scenario(AFFINE_CORNER))
        assert rep.all_passed()
        t = rep.traces[0]
        assert t.errors[1] == pytest.approx(t.bounds[1], abs=1e-8)

    def test_infeasible_reports_structured_error(self):
        rep = run_scenario(parse_scenario(INFEASIBLE))
        assert rep.error is not None
        assert rep.error["kind"] == "infeasible_intersection"
        assert not rep.all_passed()
        assert rep.traces == []

    def test_degenerate_scenario_runs_clean(self):
        s = generate_random(3, 4, [4, 4, 4], seed=5)
        rep = run_scenario(s)
        assert rep.q == 0.0
        assert rep.friedrichs["gram_block"]["degenerate"]
        assert rep.friedrichs["norm_inversion"] is None
        chain = next(c for c in rep.check_outcomes if c.name == "norm_chain")
        assert chain.passed and chain.note == "max adjacent residuals over k=1..10"
        assert len(rep.chain_residuals) == 5 and max(rep.chain_residuals) == chain.residual
        assert rep.all_passed()

    def test_analyze_mode_suppresses_traces(self):
        s = replace(parse_scenario(LINES_60), starts=[], random_starts=0,
                    checks=("norm_chain", "kw", "compare"))
        rep = run_scenario(s)
        assert rep.traces == []
        assert {c.name for c in rep.check_outcomes} == {"norm_chain", "kw", "compare"}
        assert rep.all_passed()

    def test_every_requested_check_reported(self):
        s = parse_scenario(LINES_60)
        rep = run_scenario(s)
        assert [c.name for c in rep.check_outcomes] == list(s.checks)
        assert rep.scenario is s

    def test_generated_near_coincident_pair_runs(self):
        # sines 1.7e-10, above SHARED_SINE_TOL: two distinct lines
        rep = run_scenario(generate_two_subspace(1e-8, 300, 0, seed=0))
        assert rep.error is None and rep.all_passed()

    def test_pair_within_the_rank_cutoff_is_degenerate(self):
        # Lines at a sine of half SHARED_SINE_TOL are one line, and every
        # route says so; at twice it they are two, and the run passes too.
        for sine, degenerate in ((SHARED_SINE_TOL / 2, True), (2 * SHARED_SINE_TOL, False)):
            rep = run_scenario(generate_two_subspace(np.rad2deg(np.arcsin(sine)), 300, 0, seed=0))
            assert rep.friedrichs["gram_block"]["degenerate"] is degenerate
            assert (rep.q == 0.0) is degenerate and rep.all_passed()

    @pytest.mark.parametrize("method", ["simultaneous", "cyclic"])
    def test_first_step_bounded_on_a_pair_judged_degenerate(self, method):
        # The pair is judged one subspace (angles 1e-11, below the cutoff),
        # yet one step from a start of norm 100 in the first member moves
        # it by about 1e-9, ten times the bounds tolerance.
        A, B = near_pair(np.random.default_rng(3), 1e-11, 30, 10)
        s = Scenario(ambient_dim=30, subspaces=[SubspaceSpec(A.basis), SubspaceSpec(B.basis)],
                     method=method, k_max=1, starts=[100.0 * A.basis[:, 0]], checks=("bounds",))
        rep = run_scenario(s)
        assert rep.friedrichs["gram_block"]["degenerate"]
        assert rep.traces[0].errors[1] > 1e-10
        assert rep.all_passed()

    @pytest.mark.parametrize("offset", [1e6, 1e9])
    def test_anchors_given_far_along_their_directions(self, offset):
        # Three generic hyperplanes of R^4 always meet.  Each anchor is given
        # `offset` along its own hyperplane from a common point of size 1:
        # one canonicalising pass leaves a part in the direction of size
        # eps * offset, which reads as an empty intersection (1e9) or as an
        # error floor above the shrinking bound (1e6).
        rng = np.random.default_rng(4)
        p = rng.standard_normal(4)
        specs = []
        for _ in range(3):
            S = rng.standard_normal((4, 3))
            specs.append(SubspaceSpec(S, anchor=p + offset * S @ rng.standard_normal(3)))
        s = Scenario(ambient_dim=4, subspaces=specs, mode="affine", method="cyclic",
                     k_max=40, starts=[np.zeros(4)], checks=("bounds",))
        rep = run_scenario(s)
        assert rep.error is None and rep.all_passed()


class TestEmission:
    @pytest.mark.parametrize("text", [
        LINES_60,
        AFFINE_CORNER,
        LINES_60.replace("method: simultaneous", "method: product_alternating"),
    ], ids=["linear", "affine", "product_alternating"])
    def test_json_round_trip(self, text):
        rep = run_scenario(parse_scenario(text))
        assert strict_json(render_report(rep, "json")) == report_to_dict(rep)

    def test_battery_is_strict_json(self):
        doc = verify_battery(0, 20)
        assert strict_json(render_battery(doc)) == doc

    def test_csv_row_count(self):
        text = LINES_60.replace("k_max: 5", "k_max: 2").replace("random_starts: 2", "")
        rep = run_scenario(parse_scenario(text))
        lines = render_report(rep, "csv").strip().splitlines()
        assert lines[0] == "scenario,start_index,k,error,bound,ratio"
        assert len(lines) == 1 + 3  # one start, k = 0, 1, 2

    def test_csv_header_only_without_traces(self):
        rep = run_scenario(replace(parse_scenario(LINES_60), starts=[], random_starts=0,
                                   checks=()))
        lines = render_report(rep, "csv").strip().splitlines()
        assert lines == ["scenario,start_index,k,error,bound,ratio"]

    def test_csv_zero_bound_gives_empty_ratio(self):
        s = Scenario(
            name="orth-cyclic",
            ambient_dim=2,
            subspaces=[
                SubspaceSpec(spanning=np.array([[1.0], [0.0]])),
                SubspaceSpec(spanning=np.array([[0.0], [1.0]])),
            ],
            method="cyclic",
            k_max=2,
            starts=[np.array([1.0, 1.0])],
        )
        rep = run_scenario(s)
        rows = render_report(rep, "csv").strip().splitlines()[1:]
        # the zero operator hits the target at k = 1; bounds are 0 there
        assert rows[1].endswith(",0.0,0.0,")
        assert rows[2].endswith(",0.0,0.0,")

    @pytest.mark.parametrize("name", ["my run, v2", 'say "hi"', 'a,"b"', "plain-name"])
    def test_csv_carries_any_valid_name_in_one_field(self, name):
        text = LINES_60.replace("name: two-lines-60", f"name: {name}").replace("k_max: 5", "k_max: 1")
        out = render_report(run_scenario(parse_scenario(text)), "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["scenario", "start_index", "k", "error", "bound", "ratio"]
        assert len(rows) == 1 + 3 * 2
        assert all(len(row) == 6 and row[0] == name for row in rows[1:])
        if "," not in name and '"' not in name:
            assert out.splitlines()[1].startswith(name + ",0,0,")

    def test_emit_is_byte_stable(self, tmp_path):
        scenario = tmp_path / "lines.scenario"
        scenario.write_text(LINES_60)

        def emit(fmt, path):
            assert cli.main(["run", "--scenario", str(scenario), "--format", fmt,
                             "--out", str(path)]) == 0

        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit("json", p1)
        emit("json", p2)
        assert p1.read_bytes() == p2.read_bytes()
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit("csv", c1)
        emit("csv", c2)
        assert c1.read_bytes() == c2.read_bytes()

    def test_tolerances_echoed(self):
        doc = report_to_dict(run_scenario(parse_scenario(LINES_60)))
        tols = doc["metadata"]["tolerances"]
        assert tols["norm_chain"] == 1e-8
        assert tols["bounds"] == 1e-10
        assert tols["rank_relative_eps"] == 1e-12


class TestVerifyBattery:
    def test_deterministic_and_clean(self):
        a = verify_battery(seed=42, count=8)
        b = verify_battery(seed=42, count=8)
        assert a == b
        assert a["failures"] == 0 and a["passed"]
        assert len(a["instances"]) == 8

    def test_seed_changes_instances(self):
        a = verify_battery(seed=1, count=3)
        b = verify_battery(seed=2, count=3)
        assert a["instances"] != b["instances"]

    def test_planted_scenario_verifies(self):
        s = generate_two_subspace(45.0, 5, 1, seed=9)
        rep = run_scenario(s)
        assert rep.all_passed()


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("method", ["simultaneous", "cyclic", "product_alternating"])
def test_linear_runs_form_no_projector(monkeypatch, method, r):
    # T and P_M act through the bases of the members and of M, and P_C, P_D
    # and P_CD through those of the product model: a linear run with every
    # applicable check forms no projector matrix, in R^n or in R^(nr).
    def projector(self):
        raise AssertionError(f"formed a projector in R^{self.ambient_dim}")

    monkeypatch.setattr(Subspace, "projector", projector)
    rng = np.random.default_rng(r)
    common = rng.standard_normal((12, 2))
    spans = [np.hstack([common, rng.standard_normal((12, 3))]) for _ in range(r)]
    report = run_scenario(Scenario.generated("no-projector", 12, spans, 0, k_max=6, method=method))
    assert report.error is None
    assert [c.name for c in report.check_outcomes] == list(applicable_checks(r))
    assert all(c.passed for c in report.check_outcomes)
