import json
import subprocess
import sys

import pytest

from projbounds import cli, format_scenario, generate_random
from projbounds.runner import DEFAULT_TOLERANCES, render_battery, verify_battery


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "projbounds", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "pair.scenario"
    result = run_cli(
        "generate", "two-subspace",
        "--theta", "60", "--dim", "4", "--shared-dim", "1",
        "--seed", "3", "--out", str(path),
    )
    assert result.returncode == 0, result.stderr
    return path


class TestGenerate:
    def test_two_subspace_writes_parseable_file(self, scenario_file):
        text = scenario_file.read_text()
        assert text.startswith("projscenario v1\n")
        assert "checks:" in text

    def test_random_to_stdout(self):
        result = run_cli("generate", "random", "--r", "3", "--dim", "6",
                         "--dims", "2,3,2", "--seed", "4")
        assert result.returncode == 0
        assert result.stdout.startswith("projscenario v1\n")

    def test_bad_parameters_exit_2(self):
        result = run_cli("generate", "two-subspace", "--theta", "120",
                         "--dim", "4", "--seed", "0")
        assert result.returncode == 2
        assert "error:" in result.stderr

    @pytest.mark.parametrize("kind", [
        ("random", "--r", "2", "--dim", "4", "--dims", "2,2"),
        ("two-subspace", "--theta", "60", "--dim", "4"),
    ])
    def test_negative_seed_exits_2(self, kind):
        result = run_cli("generate", *kind, "--seed", "-2")
        assert result.returncode == 2
        assert "seed" in result.stderr and "Traceback" not in result.stderr

    def test_flags_left_out_take_the_library_defaults(self):
        base = ("generate", "random", "--r", "2", "--dim", "5", "--dims", "2,3")
        plain = run_cli(*base)
        assert plain.returncode == 0
        assert plain.stdout == format_scenario(generate_random(2, 5, [2, 3], seed=0))
        assert run_cli(*base, "--kmax", "10", "--method", "simultaneous").stdout == plain.stdout

    def test_non_integer_dims_exit_2(self):
        result = run_cli("generate", "random", "--r", "2", "--dim", "4", "--dims", "2,x")
        assert result.returncode == 2
        assert "error:" in result.stderr and "--dims" in result.stderr
        assert "Traceback" not in result.stderr


class TestRun:
    def test_json_report_and_exit_zero(self, scenario_file, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("run", "--scenario", str(scenario_file), "--out", str(out))
        assert result.returncode == 0, result.stderr
        doc = json.loads(out.read_text())
        assert doc["schema"] == "projbounds-report v1"
        assert abs(doc["q"] - 0.75) <= 1e-9
        assert all(c["passed"] for c in doc["check_outcomes"])

    def test_csv_format(self, scenario_file):
        result = run_cli("run", "--scenario", str(scenario_file), "--format", "csv")
        assert result.returncode == 0
        header, *rows = result.stdout.strip().splitlines()
        assert header == "scenario,start_index,k,error,bound,ratio"
        assert len(rows) == 2 * 11  # two random starts, k = 0..10

    def test_kmax_and_seed_overrides(self, scenario_file):
        result = run_cli("run", "--scenario", str(scenario_file),
                         "--kmax", "3", "--format", "csv")
        rows = result.stdout.strip().splitlines()[1:]
        assert len(rows) == 2 * 4

    @pytest.mark.parametrize("command", ["run", "analyze", "verify"])
    def test_kmax_below_one_exits_2(self, scenario_file, command, capsys):
        code = cli.main([command, "--scenario", str(scenario_file), "--kmax", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "k_max" in err and "Traceback" not in err

    def test_negative_seed_exits_2(self, scenario_file):
        result = run_cli("run", "--scenario", str(scenario_file), "--seed", "-1")
        assert result.returncode == 2
        assert "seed" in result.stderr and "Traceback" not in result.stderr

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text("projscenario v1\nambient_dim: 2\nk_max: 0\n")
        result = run_cli("run", "--scenario", str(bad))
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_infeasible_affine_exits_2(self, tmp_path):
        doc = (
            "projscenario v1\nname: parallel\nambient_dim: 2\nmode: affine\n"
            "subspace:\nspan:\n1 0\nanchor: 0 0\n"
            "subspace:\nspan:\n1 0\nanchor: 0 1\nstarts:\n0 0\n"
        )
        path = tmp_path / "parallel.scenario"
        path.write_text(doc)
        result = run_cli("run", "--scenario", str(path))
        assert result.returncode == 2
        assert "infeasible" in result.stderr or "empty intersection" in result.stderr

    def test_failing_check_exits_1(self, scenario_file, monkeypatch, capsys):
        # force a failure by making a tolerance impossible
        monkeypatch.setitem(DEFAULT_TOLERANCES, "norm_chain", -1.0)
        code = cli.main(["run", "--scenario", str(scenario_file)])
        capsys.readouterr()
        assert code == 1


class TestAnalyze:
    def test_reports_angles_without_traces(self, scenario_file):
        result = run_cli("analyze", "--scenario", str(scenario_file))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["traces"] == []
        assert {c["check"] for c in doc["check_outcomes"]} <= {
            "norm_chain", "kw", "lemma_identity", "compare",
        }
        assert doc["friedrichs"]["gram_block"]["value"] == pytest.approx(0.5, abs=1e-9)


class TestVerify:
    def test_single_scenario(self, scenario_file):
        result = run_cli("verify", "--scenario", str(scenario_file))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        names = {c["check"] for c in doc["check_outcomes"]}
        assert names == {"norm_chain", "kw", "lemma_identity",
                         "pierra_lift", "compare", "bounds"}

    def test_battery_repeats_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        r1 = run_cli("verify", "--count", "6", "--seed", "5", "--out", str(out1))
        r2 = run_cli("verify", "--count", "6", "--seed", "5", "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_battery_kmax_below_one_exits_2(self, kmax):
        result = run_cli("verify", "--count", "2", "--kmax", kmax)
        assert result.returncode == 2
        assert "error:" in result.stderr and "Traceback" not in result.stderr

    def test_battery_negative_seed_exits_2(self):
        result = run_cli("verify", "--count", "2", "--seed", "-1")
        assert result.returncode == 2
        assert "seed" in result.stderr and "Traceback" not in result.stderr

    def test_battery_flags_left_out_take_the_library_defaults(self):
        result = run_cli("verify")
        assert result.returncode == 0
        assert result.stdout == render_battery(verify_battery())

    def test_battery_document_shape(self):
        result = run_cli("verify", "--count", "3", "--seed", "8")
        doc = json.loads(result.stdout)
        assert doc["schema"] == "projbounds-verify v1"
        assert doc["count"] == 3 and doc["failures"] == 0


class TestEntryPoints:
    def test_module_help(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for name in ("analyze", "run", "verify", "generate"):
            assert name in result.stdout

    def test_missing_subcommand_exits_2(self):
        result = run_cli()
        assert result.returncode == 2
