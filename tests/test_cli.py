"""CLI behavior: subcommands, output formats, exit codes, help coverage."""

from __future__ import annotations

import argparse
import json
import shutil

import numpy as np
import pytest

from gridsense import PlacementPlan, bundled_case_path
from gridsense.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    run_cli,
)

IEEE9 = str(bundled_case_path("ieee9.case"))


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_plan(path, buses):
    path.write_text(
        f"gridsense-plan v1\nbuses {' '.join(str(b) for b in buses)}\nfinal_coherence 0.5\n"
    )
    return path


class TestInspect:
    def test_summary_output(self, capsys):
        code, out, _ = run(capsys, "inspect", "--case", IEEE9)
        assert code == EXIT_OK
        assert "buses: 9" in out
        assert "condition estimate:" in out

    def test_missing_case_file(self, capsys):
        code, _, err = run(capsys, "inspect", "--case", "/nonexistent.case")
        assert code == EXIT_DATA
        assert "error" in err

    def test_relative_case_path_named_like_header(self, capsys, tmp_path, monkeypatch):
        shutil.copy(IEEE9, tmp_path / "gridsense-ieee9.case")
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "inspect", "--case", "gridsense-ieee9.case")
        assert code == EXIT_OK
        assert "buses: 9" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "summary.txt"
        code, out, _ = run(capsys, "inspect", "--case", IEEE9, "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert "buses: 9" in target.read_text()


class TestPlace:
    def test_greedy_plan_stdout(self, capsys):
        code, out, _ = run(capsys, "place", "--case", IEEE9, "--meters", "7")
        assert code == EXIT_OK
        plan = PlacementPlan.from_text(out)
        assert len(plan.chosen) == 7
        assert len(plan.objective_trace) == 7

    def test_random_plan_seeded(self, capsys):
        args = ("place", "--case", IEEE9, "--meters", "5", "--placement", "random", "--seed", "9")
        _, out_a, _ = run(capsys, *args)
        _, out_b, _ = run(capsys, *args)
        assert out_a == out_b

    def test_meters_out_of_range(self, capsys):
        code, _, err = run(capsys, "place", "--case", IEEE9, "--meters", "10")
        assert code == EXIT_DATA
        assert "error" in err


class TestCoherence:
    def test_reports_plan_coherence(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.txt"
        run(capsys, "place", "--case", IEEE9, "--meters", "7", "--out", str(plan_path))
        code, out, _ = run(
            capsys, "coherence", "--case", IEEE9, "--plan", str(plan_path),
            "--sparsity", "1,2",
        )
        assert code == EXIT_OK
        assert "mutual coherence:" in out
        assert out.count("advisory bound factor") == 2

    def test_malformed_plan(self, capsys, tmp_path):
        bad = tmp_path / "plan.txt"
        bad.write_text("not a plan\n")
        code, _, err = run(capsys, "coherence", "--case", IEEE9, "--plan", str(bad))
        assert code == EXIT_DATA


class TestEstimate:
    @pytest.fixture
    def scenario(self, capsys, tmp_path, ieee9_model):
        plan_path = tmp_path / "plan.txt"
        run(capsys, "place", "--case", IEEE9, "--meters", "7", "--out", str(plan_path))
        plan = PlacementPlan.from_text(plan_path.read_text())
        i_true = np.zeros(9)
        i_true[5] = 1.25
        y = ieee9_model.impedance[np.array(plan.chosen) - 1] @ i_true
        snap = ["gridsense-snapshot v1", "[voltages]"]
        snap += [f"{b} {v:.15g}" for b, v in zip(plan.chosen, y)]
        snap_path = tmp_path / "snap.meas"
        snap_path.write_text("\n".join(snap) + "\n")
        return plan_path, snap_path, i_true

    def test_table_output(self, capsys, scenario):
        plan_path, snap_path, i_true = scenario
        code, out, _ = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(snap_path),
        )
        assert code == EXIT_OK
        assert "support: 6" in out
        assert "converged: yes" in out
        assert "route: lp" in out

    def test_json_output(self, capsys, scenario, tmp_path):
        plan_path, snap_path, i_true = scenario
        target = tmp_path / "estimate.json"
        code, _, _ = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(snap_path),
            "--out", str(target),
        )
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        assert payload["support"] == [6]
        assert payload["injections"]["6"] == pytest.approx(1.25, abs=1e-6)
        assert payload["route"] == "lp"

    def test_csv_output(self, capsys, scenario, tmp_path):
        plan_path, snap_path, _ = scenario
        target = tmp_path / "estimate.csv"
        code, _, _ = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(snap_path),
            "--out", str(target),
        )
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert lines[0] == "bus,current"
        assert len(lines) == 10

    def test_malformed_snapshot(self, capsys, scenario, tmp_path):
        plan_path, _, _ = scenario
        bad = tmp_path / "bad.meas"
        bad.write_text("gridsense-snapshot v1\n[voltages]\n1 not-a-number\n")
        code, _, err = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(bad),
        )
        assert code == EXIT_DATA
        assert "error" in err

    @pytest.mark.parametrize(
        "buses, message",
        [((0, 3, 5), "unknown bus id 0"), ((3, 3, 5), "duplicate sensor buses in (3, 3, 5)")],
    )
    def test_bad_plan_buses(self, capsys, tmp_path, buses, message):
        # the snapshot reads every bus the plan names, so only the plan is wrong
        plan_path = write_plan(tmp_path / "plan.txt", buses)
        snap_path = tmp_path / "snap.meas"
        snap_path.write_text(
            "gridsense-snapshot v1\n[voltages]\n"
            + "".join(f"{b} 0.25\n" for b in sorted(set(buses)))
        )
        code, out, err = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(snap_path),
        )
        assert code == EXIT_DATA
        assert message in err
        assert out == ""


class TestBench:
    @pytest.mark.parametrize(
        "buses, message",
        [
            ((0, 3, 5), "unknown bus id 0"),
            ((3, 5, 10), "unknown bus id 10"),
            ((3, 3, 5), "duplicate sensor buses in (3, 3, 5)"),
        ],
    )
    @pytest.mark.parametrize("estimator", ["cs", "min-energy"])
    def test_bad_file_plan_buses(self, capsys, tmp_path, buses, message, estimator):
        plan_path = write_plan(tmp_path / "plan.txt", buses)
        code, _, err = run(
            capsys, "bench", "--case", IEEE9, "--meters", "3", "--sparsity", "1",
            "--placement", f"file:{plan_path}", "--estimator", estimator, "--trials", "2",
        )
        assert code == EXIT_DATA
        assert message in err

    def test_file_plan_meter_count_mismatch(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.txt"
        run(capsys, "place", "--case", IEEE9, "--meters", "7", "--out", str(plan_path))
        code, out, err = run(
            capsys, "bench", "--case", IEEE9, "--meters", "3,5", "--sparsity", "1",
            "--placement", f"file:{plan_path}", "--trials", "2",
        )
        assert code == EXIT_DATA
        assert "cell has 3 meters but its placement plan has 7" in err
        assert out == ""

    def test_csv_and_plot_companion(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1,2",
            "--trials", "4", "--seed", "3", "--out", str(target),
        )
        assert code == EXIT_OK
        lines = target.read_text().splitlines()
        assert lines[0].startswith("sparsity,meters,placement,estimator")
        assert len(lines) == 3
        plot = (tmp_path / "report.csv.plot").read_text()
        assert plot.startswith("# series")

    def test_table_to_stdout(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1",
            "--trials", "2", "--seed", "0",
        )
        assert code == EXIT_OK
        assert "ratio" in out

    def test_estimator_both_and_noise_grid(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1",
            "--noise", "0,0.01", "--estimator", "both",
            "--trials", "2", "--seed", "0", "--out", str(target),
        )
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        keys = {(c["estimator"], c["noise_std"]) for c in payload["cells"]}
        assert keys == {("cs", 0.0), ("cs", 0.01), ("min_energy", 0.0), ("min_energy", 0.01)}

    def test_file_placement(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.txt"
        run(capsys, "place", "--case", IEEE9, "--meters", "6", "--out", str(plan_path))
        target = tmp_path / "report.csv"
        code, _, _ = run(
            capsys, "bench", "--case", IEEE9, "--meters", "6", "--sparsity", "1",
            "--placement", f"file:{plan_path}", "--trials", "2", "--seed", "0",
            "--out", str(target),
        )
        assert code == EXIT_OK
        assert ",file," in target.read_text()

    def test_bad_placement_token(self, capsys):
        code, _, err = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1",
            "--placement", "optimal", "--trials", "1",
        )
        assert code == EXIT_DATA

    def test_byte_identical_repeat_runs(self, capsys, tmp_path):
        targets = []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            code, _, _ = run(
                capsys, "bench", "--case", IEEE9, "--meters", "7,8", "--sparsity", "1,2",
                "--trials", "5", "--seed", "21", "--out", str(target),
            )
            assert code == EXIT_OK
            targets.append(target)
        assert targets[0].read_bytes() == targets[1].read_bytes()

    def test_random_cell_runs_every_trial(self, capsys, tmp_path):
        target = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1",
            "--placement", "random", "--trials", "150", "--seed", "1", "--out", str(target),
        )
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        assert payload["trials"] == 150
        assert [c["trials"] for c in payload["cells"]] == [150]


@pytest.mark.parametrize("subcommand", ["coherence", "estimate", "bench"])
def test_empty_plan_rejected(capsys, tmp_path, subcommand):
    plan_path = write_plan(tmp_path / "plan.txt", ())
    snap_path = tmp_path / "snap.meas"
    snap_path.write_text("gridsense-snapshot v1\n")
    argv = {
        "coherence": ["--plan", str(plan_path)],
        "estimate": ["--plan", str(plan_path), "--snapshot", str(snap_path)],
        "bench": ["--meters", "0", "--sparsity", "1", "--placement", f"file:{plan_path}",
                  "--trials", "1"],
    }[subcommand]
    code, _, err = run(capsys, subcommand, "--case", IEEE9, *argv)
    assert code == EXIT_DATA
    assert "no sensor buses" in err


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "place", "--case", IEEE9)[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert run(capsys, "inspect", "--case", IEEE9, "--bogus")[0] == EXIT_USAGE

    def test_bad_estimator_choice(self, capsys):
        code, _, _ = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1",
            "--estimator", "omp",
        )
        assert code == EXIT_USAGE


class TestHelpCoverage:
    def _subparsers(self):
        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        raise AssertionError("no subcommands registered")

    def test_every_flag_documented(self):
        for name, sub in self._subparsers().items():
            help_text = sub.format_help()
            for action in sub._actions:
                assert action.help, f"{name}: {action.option_strings} lacks help text"
                for opt in action.option_strings:
                    assert opt in help_text, f"{name}: {opt} missing from --help"

    def test_spec_flags_exist(self):
        subs = self._subparsers()
        flags = {
            name: {opt for a in sub._actions for opt in a.option_strings}
            for name, sub in subs.items()
        }
        assert {"--case", "--out"} <= flags["inspect"]
        assert {"--meters", "--seed", "--placement"} <= flags["place"]
        assert {"--plan", "--sparsity"} <= flags["coherence"]
        assert {"--plan", "--snapshot", "--epsilon"} <= flags["estimate"]
        assert {
            "--meters", "--sparsity", "--noise", "--trials", "--seed",
            "--estimator", "--placement", "--threads", "--epsilon",
        } <= flags["bench"]
