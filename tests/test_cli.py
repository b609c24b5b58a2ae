"""CLI behavior: subcommands, output formats, exit codes, help coverage."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

from gridsense import (
    MeasurementSet,
    PlacementPlan,
    SolverConfig,
    build_impedance_model,
    bundled_case_path,
    default_epsilon,
    estimate_state,
    load_network,
)
from gridsense import harness
from gridsense.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    run_cli,
)

from conftest import (
    IEEE9_CONVERGING_POWER,
    IEEE9_DIVERGING_POWER,
    ieee9_power_snapshot,
    trial_snapshot,
)

IEEE9 = str(bundled_case_path("ieee9.case"))
IEEE118 = str(bundled_case_path("ieee118.case"))


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
        assert out == (
            f"case: {IEEE9}\n"
            "buses: 9\n"
            "branches: 9\n"
            "devices: constant_resistance_load=3\n"
            "folded loads: 3\n"
            "condition estimate: 166.324 (ceiling 1e+08)\n"
            "Z diagonal range: [0.351901, 0.456873]\n"
        )

    # two buses joined by a 1.0 branch, bus 2 grounded through the shunt:
    # the condition estimate of G is about 4 * shunt
    @pytest.mark.parametrize(
        "shunt, code, line",
        [("1e6", EXIT_OK, "condition estimate: 4e+06 (ceiling 1e+08)\n"),
         ("1e9", EXIT_DATA, "condition estimate 4.000e+09 exceeds ceiling 1.0e+08")],
    )
    def test_condition_ceiling(self, capsys, tmp_path, shunt, code, line):
        case = tmp_path / "two.case"
        case.write_text(f"gridsense-case v1\n[buses]\n1\n2 load {shunt}\n[branches]\n1 2 1.0\n")
        got, out, err = run(capsys, "inspect", "--case", str(case))
        assert got == code
        assert line in (out if code == EXIT_OK else err)

    def test_missing_case_file(self, capsys):
        code, _, err = run(capsys, "inspect", "--case", "/nonexistent.case")
        assert code == EXIT_DATA
        assert "error" in err

    def test_directory_as_case(self, capsys, tmp_path):
        code, out, err = run(capsys, "inspect", "--case", str(tmp_path))
        assert code == EXIT_DATA
        assert err.startswith("gridsense: error:")
        assert out == ""

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

    def test_nan_epsilon(self, capsys, scenario):
        plan_path, snap_path, _ = scenario
        code, out, err = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(snap_path), "--epsilon", "nan",
        )
        assert code == EXIT_DATA
        assert "epsilon must be >= 0" in err
        assert out == ""

    def test_infinite_epsilon(self, capsys, scenario):
        # an infinite radius once printed the all-zero estimate as converged
        plan_path, snap_path, _ = scenario
        code, out, err = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(snap_path), "--epsilon", "inf",
        )
        assert code == EXIT_DATA
        assert "epsilon must be >= 0 and finite, got inf" in err
        assert out == ""

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

    def test_all_injections_known_nan_reading(self, capsys, tmp_path):
        plan_path = write_plan(tmp_path / "plan.txt", (1, 2, 3))
        snap_path = tmp_path / "snap.meas"
        snap_path.write_text(
            "gridsense-snapshot v1\n[voltages]\n1 nan\n2 0.1\n3 0.2\n[known_injections]\n"
            + "".join(f"{b} 0.1\n" for b in range(1, 10))
        )
        code, out, err = run(
            capsys, "estimate", "--case", IEEE9,
            "--plan", str(plan_path), "--snapshot", str(snap_path),
        )
        assert code == EXIT_DATA
        assert "non-finite entries in solver input" in err
        assert out == ""


class TestReportBytesIeee9:
    # sha256 of each report. Z and the LP answers have the same bits with
    # one BLAS thread or more, so the reports do too
    PINNED = {
        "plan.txt": "4d7da62b1bae6587c024196cfda019a8d25c66042590c94dd9b43cf48731c972",
        "plan-random.txt": "5353ba20cb286495d03de7b6a954374ca09286c1864c652e9dc629262c048cc8",
        "coherence.txt": "dbf82cb4ffccd14d0f6d4fc8db654c28b9e33124b088dafa88df87234e588098",
        "estimate-lp.json": "0fc08fb32f81fc39bd5039f971edd4182cc16f5d775a17a74788a04e1933a8c4",
        "estimate-lp.txt": "5e487403135a38eb8eb22d9304b505360f835c74acd8860b1091e9738d8dde67",
        "estimate-homotopy.json": (
            "38ef5d3b1d912dc2c0e3265f5328e82b3cd7a60b4efa653a823cfdb1b6cf26cd"
        ),
        "estimate-homotopy.txt": (
            "b3d606f5a90a31b34be0975eee1ee17c5b441afe2cce7a2c84874b4babf5acb2"
        ),
        "estimate-power.json": (
            "07dbdbb9eaaaf5e95324357bc51e5ec6c89cb4c389858f8325858dec6b232dbe"
        ),
        "estimate-power.txt": (
            "fda60c113a015dd648d8e059bd80ed5ca8288ce51667e0d6e485d296133f3ee7"
        ),
        "bench.json": "31b064f1d4f184ab29bd2bebf4849696e31882d13c60422260460994c02f0b8c",
    }

    def test_reports_pinned(self, tmp_path, ieee9_model):
        digests = {}

        def report(name, *argv):
            target = tmp_path / name
            assert run_cli([*argv, "--case", IEEE9, "--out", str(target)]) == EXIT_OK
            digests[name] = hashlib.sha256(target.read_bytes()).hexdigest()

        plan_path = str(tmp_path / "plan.txt")
        report("plan.txt", "place", "--meters", "7")
        report("plan-random.txt", "place", "--placement", "random", "--meters", "5", "--seed", "3")
        report("coherence.txt", "coherence", "--plan", plan_path, "--sparsity", "1,2,3")
        chosen = PlacementPlan.from_text((tmp_path / "plan.txt").read_text()).chosen
        rows = ieee9_model.impedance[np.array(chosen) - 1]
        i_lp = np.zeros(9)
        i_lp[[3, 5]] = [-0.8, 1.25]
        i_homotopy = np.zeros(9)
        i_homotopy[[1, 5, 8]] = [0.5, 1.1, -0.7]
        y_homotopy = rows @ i_homotopy + np.linspace(-4e-3, 4e-3, 7)
        snapshots = {
            # basis pursuit, exact readings
            "lp": (MeasurementSet(voltage_readings=dict(zip(chosen, rows @ i_lp))), "0"),
            # the path at epsilon 0.01, with bus 2's injection known
            "homotopy": (
                MeasurementSet(
                    voltage_readings=dict(zip(chosen, y_homotopy)), known_injections={2: 0.5},
                ),
                "0.01",
            ),
            # a constant-power load refined by Newton, with a regulated source
            "power": (ieee9_power_snapshot(ieee9_model, chosen, *IEEE9_CONVERGING_POWER[1:]), "0"),
        }
        for key, (meas, eps) in snapshots.items():
            snap_path = tmp_path / f"{key}.meas"
            snap_path.write_text(meas.to_text())
            for ext in ("json", "txt"):
                report(
                    f"estimate-{key}.{ext}", "estimate", "--plan", plan_path,
                    "--snapshot", str(snap_path), "--epsilon", eps,
                )
        report(
            "bench.json", "bench", "--meters", "7", "--sparsity", "1,2", "--estimator", "both",
            "--placement", "greedy,random", "--noise", "0,0.01", "--trials", "20", "--seed", "5",
        )
        assert digests == self.PINNED
        assert "support: 4 6\n" in (tmp_path / "estimate-lp.txt").read_text()
        assert "support: 3 5 8\n" in (tmp_path / "estimate-power.txt").read_text()
        assert "support: 1 2 3 6 7 9\n" in (tmp_path / "estimate-homotopy.txt").read_text()


def estimate_ieee118_greedy(workdir):
    """Place 60 meters on the 118-bus model, write a snapshot and estimate it.

    Buses 1...60 read two unknown injections and two known current sources.
    Returns the exit codes of place and estimate and the plan, snapshot and
    JSON report paths in workdir.
    """
    plan_path, snap_path, target = (workdir / n for n in ("plan.txt", "snap.meas", "est.json"))
    placed = run_cli(["place", "--case", IEEE118, "--meters", "60", "--out", str(plan_path)])
    plan = PlacementPlan.from_text(plan_path.read_text())
    known = {10: 0.5, 101: -0.3}
    i_true = np.zeros(118)
    i_true[[70, 95]] = [1.25, -0.8]
    for b, v in known.items():
        i_true[b - 1] = v
    model = build_impedance_model(load_network(IEEE118))
    y = model.impedance[np.array(plan.chosen) - 1] @ i_true
    meas = MeasurementSet(voltage_readings=dict(zip(plan.chosen, y)), known_injections=known)
    snap_path.write_text(meas.to_text())
    estimated = run_cli([
        "estimate", "--case", IEEE118,
        "--plan", str(plan_path), "--snapshot", str(snap_path), "--out", str(target),
    ])
    return placed, estimated, plan_path, snap_path, target


class TestEstimateIeee118:
    def test_greedy_plan_takes_the_lp(self, tmp_path, ieee118_model):
        placed, estimated, plan_path, snap_path, target = estimate_ieee118_greedy(tmp_path)
        assert (placed, estimated) == (EXIT_OK, EXIT_OK)
        payload = json.loads(target.read_text())
        assert (payload["route"], payload["converged"]) == ("lp", True)
        got = np.array([payload["injections"][str(b)] for b in range(1, 119)])
        plan = PlacementPlan.from_text(plan_path.read_text())
        want = estimate_state(
            ieee118_model, MeasurementSet.from_text(snap_path.read_text()), plan, SolverConfig()
        )
        assert np.array_equal(got, want.injections)

    def test_report_bytes_pinned(self, tmp_path):
        # the report's exact bytes, pinned: estimate_state's set-up must not
        # move them, and neither may the BLAS thread count
        assert estimate_ieee118_greedy(tmp_path)[:2] == (EXIT_OK, EXIT_OK)
        assert hashlib.sha256((tmp_path / "est.json").read_bytes()).hexdigest() == (
            "e3a55fa99fddecfc047a789c56e10c68797901aafc387a0ec0d2188e0e50f8d1"
        )


class TestEstimateNotConverged:
    def test_least_squares_reported(self, capsys, tmp_path, ieee9_current_source_spec):
        # trial 2 of the 9-bus current-source setting: no point lies within
        # epsilon of its readings (tests/test_harness.py, TestLeastSquaresGiveUp).
        # Current sources do not enter Z, so the bundled case serves; the
        # snapshot carries them as known injections
        spec = ieee9_current_source_spec
        plan_path = write_plan(tmp_path / "plan.txt", spec.placement.chosen)
        snap_path = tmp_path / "snap.meas"
        snap_path.write_text(trial_snapshot(spec, 2).to_text())
        eps = str(default_epsilon(spec.noise_std, len(spec.placement.chosen)))
        argv = ["estimate", "--case", IEEE9, "--plan", str(plan_path),
                "--snapshot", str(snap_path), "--epsilon", eps]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert "converged: no (0 iterations)" in out
        assert "route: fallback" in out
        target = tmp_path / "x.json"
        code, _, _ = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        assert (payload["converged"], payload["route"], payload["iterations_used"]) == (
            False, "fallback", 0,
        )


class TestEstimateConstantPower:
    """`estimate` on 9-bus snapshots with a constant-power load at bus 5."""

    def argv(self, tmp_path, buses, snapshot_text):
        plan_path = write_plan(tmp_path / "plan.txt", buses)
        snap_path = tmp_path / "snap.meas"
        snap_path.write_text(snapshot_text)
        return ["estimate", "--case", IEEE9, "--plan", str(plan_path), "--snapshot", str(snap_path)]

    def test_divergence_exits_1(self, capsys, tmp_path, ieee9_model):
        buses, currents, sources = IEEE9_DIVERGING_POWER
        meas = ieee9_power_snapshot(ieee9_model, buses, currents, sources)
        code, out, err = run(capsys, *self.argv(tmp_path, buses, meas.to_text()))
        assert code == EXIT_DATA
        assert err == "gridsense: error: no damping step reduced the residual (||r|| = 1.843e-02)\n"
        assert out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_power_constraint(self, capsys, tmp_path, ieee9_model, value):
        buses, currents, sources = IEEE9_CONVERGING_POWER
        meas = ieee9_power_snapshot(ieee9_model, buses, currents, sources)
        text = dataclasses.replace(meas, power_constraints={5: float(value)}).to_text()
        assert f"[power_constraints]\n5 {value}\n" in text
        code, out, err = run(capsys, *self.argv(tmp_path, buses, text))
        assert code == EXIT_DATA
        assert err == "gridsense: error: non-finite entries in solver input\n"
        assert out == ""

    def test_regulated_source_converges(self, capsys, tmp_path, ieee9_model):
        buses, currents, sources = IEEE9_CONVERGING_POWER
        text = ieee9_power_snapshot(ieee9_model, buses, currents, sources).to_text()
        assert "[voltage_sources]\n8\n" in text
        target = tmp_path / "est.json"
        code, _, _ = run(capsys, *self.argv(tmp_path, buses, text), "--out", str(target))
        assert code == EXIT_OK
        payload = json.loads(target.read_text())
        plan = PlacementPlan.from_text((tmp_path / "plan.txt").read_text())
        want = estimate_state(ieee9_model, MeasurementSet.from_text(text), plan, SolverConfig())
        got = np.array([payload["injections"][str(b)] for b in range(1, 10)])
        assert got.tobytes() == want.injections.tobytes()
        assert payload["residual_norm"].hex() == want.residual_norm.hex()
        assert (payload["iterations_used"], payload["converged"], payload["route"]) == (
            want.iterations_used, True, "lp",
        )
        assert payload["support"] == [3, 5, 8]


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

    def test_bad_cell_fails_before_any_trial(self, capsys, monkeypatch):
        # the S=1 cell would run 3,000 trials before the S=10 cell fails
        def no_solve(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_solve_block", no_solve)
        code, out, err = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1,10",
            "--trials", "3000",
        )
        assert (code, out) == (EXIT_DATA, "")
        assert "sparsity must be in 1..9" in err

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

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    @pytest.mark.parametrize("estimator", ["cs", "min-energy"])
    def test_non_finite_noise(self, capsys, noise, estimator):
        code, out, err = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1",
            "--noise", noise, "--estimator", estimator, "--trials", "3", "--seed", "1",
        )
        assert code == EXIT_DATA
        assert f"noise_std must be finite and >= 0, got {noise}" in err
        assert out == ""

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon(self, capsys, epsilon):
        # an infinite radius once scored every cs cell on the all-zero estimate
        code, out, err = run(
            capsys, "bench", "--case", IEEE9, "--meters", "7", "--sparsity", "1",
            "--epsilon", epsilon, "--trials", "3", "--seed", "1",
        )
        assert code == EXIT_DATA
        assert f"epsilon must be >= 0 and finite, got {epsilon}" in err
        assert out == ""

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


@pytest.mark.parametrize("subcommand", ["place", "bench"])
def test_negative_seed_named(capsys, subcommand):
    argv = {
        "place": ["--meters", "5", "--placement", "random"],
        "bench": ["--meters", "7", "--sparsity", "1", "--placement", "random", "--trials", "2"],
    }[subcommand]
    code, out, err = run(capsys, subcommand, "--case", IEEE9, *argv, "--seed", "-1")
    assert (code, out) == (EXIT_DATA, "")
    assert "gridsense: error: seed must be >= 0, got -1" in err


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
