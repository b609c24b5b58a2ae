"""Monte Carlo engine: state sampling, simulation, noise, trials, benchmark grid."""

from __future__ import annotations

import numpy as np
import pytest

from gridsense import (
    BenchmarkReport,
    MeasurementSet,
    ScenarioSpec,
    SolverConfig,
    TrialResult,
    ValidationError,
    add_noise,
    apply_current_offsets,
    build_impedance_model,
    default_epsilon,
    eligible_injection_buses,
    estimate_state,
    greedy_place_sensors,
    invert_to_impedance,
    min_energy,
    random_place_sensors,
    run_benchmark,
    run_trial,
    sample_sparse_state,
    simulate_measurements,
)
from gridsense import recon
from gridsense.harness import SUCCESS_THRESHOLD
from gridsense.network import Branch, Bus, DcNetwork, InjectionDevice
from gridsense.sensing import PlacementPlan

TWO_BUS_Z = invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 2.0]]))  # Z=[[2,1],[1,1]]


@pytest.fixture(scope="module")
def ieee9_spec(ieee9_network, ieee9_model):
    plan = greedy_place_sensors(ieee9_model, 7)

    def make(**overrides):
        kwargs = dict(
            network=ieee9_network, model=ieee9_model, placement=plan,
            sparsity=1, trials=4, seed=11,
        )
        kwargs.update(overrides)
        return ScenarioSpec(**kwargs)

    return make


class TestScenarioSpec:
    def test_invalid_sparsity(self, ieee9_spec):
        with pytest.raises(ValidationError):
            ieee9_spec(sparsity=0)
        with pytest.raises(ValidationError):
            ieee9_spec(sparsity=10)

    def test_invalid_range(self, ieee9_spec):
        with pytest.raises(ValidationError):
            ieee9_spec(injection_low=1.5, injection_high=0.5)

    def test_invalid_sign_policy(self, ieee9_spec):
        with pytest.raises(ValidationError):
            ieee9_spec(sign_policy="positive")

    def test_negative_noise(self, ieee9_spec):
        with pytest.raises(ValidationError):
            ieee9_spec(noise_std=-0.01)


class TestSampleSparseState:
    def test_single_active_bus(self, ieee9_spec):
        spec = ieee9_spec(sparsity=1)
        x = sample_sparse_state(9, spec, trial_index=0)
        assert np.count_nonzero(x) == 1
        mag = np.abs(x[x != 0][0])
        assert 0.5 <= mag <= 1.5

    def test_deterministic_in_seed_and_trial(self, ieee9_spec):
        spec = ieee9_spec(sparsity=3)
        a = sample_sparse_state(9, spec, trial_index=5)
        b = sample_sparse_state(9, spec, trial_index=5)
        assert np.array_equal(a, b)
        c = sample_sparse_state(9, spec, trial_index=6)
        assert not np.array_equal(a, c)

    def test_full_density_allowed(self, ieee9_spec):
        spec = ieee9_spec(sparsity=9)
        x = sample_sparse_state(9, spec, trial_index=0)
        assert np.count_nonzero(x) == 9

    def test_sign_policies(self, ieee9_spec):
        pos = sample_sparse_state(9, ieee9_spec(sparsity=4, sign_policy="sources"), 0)
        neg = sample_sparse_state(9, ieee9_spec(sparsity=4, sign_policy="loads"), 0)
        assert np.all(pos[pos != 0] > 0)
        assert np.all(neg[neg != 0] < 0)

    def test_fixed_device_buses_excluded(self):
        # a current source pins its bus; sampling must avoid it
        net = DcNetwork(
            (Bus(id=1), Bus(id=2, shunt_resistance=1.0), Bus(id=3)),
            (Branch(1, 2, 1.0), Branch(2, 3, 1.0)),
            (InjectionDevice(1, "current_source", 0.7),),
        )
        assert eligible_injection_buses(net) == [2, 3]
        model = build_impedance_model(net)
        plan = greedy_place_sensors(model, 2)
        spec = ScenarioSpec(network=net, model=model, placement=plan, sparsity=2, seed=0)
        for t in range(20):
            x = sample_sparse_state(3, spec, t)
            assert x[0] == 0.0

    def test_sparsity_exceeds_eligible(self):
        # two of three buses are pinned by sources, so S=2 cannot be sampled
        net = DcNetwork(
            (Bus(id=1), Bus(id=2, shunt_resistance=1.0), Bus(id=3)),
            (Branch(1, 2, 1.0), Branch(2, 3, 1.0)),
            (
                InjectionDevice(1, "current_source", 0.7),
                InjectionDevice(3, "current_source", -0.2),
            ),
        )
        model = build_impedance_model(net)
        plan = greedy_place_sensors(model, 2)
        spec = ScenarioSpec(network=net, model=model, placement=plan, sparsity=2, seed=0)
        with pytest.raises(ValidationError):
            sample_sparse_state(3, spec, 0)


class TestSimulateMeasurements:
    def test_zero_state(self, ieee9_model):
        plan = greedy_place_sensors(ieee9_model, 3)
        assert np.array_equal(simulate_measurements(ieee9_model, plan, np.zeros(9)), np.zeros(3))

    def test_single_row_product(self):
        plan = PlacementPlan(chosen=(1,), objective_trace=(0.0,), final_coherence=0.0)
        y = simulate_measurements(TWO_BUS_Z, plan, [1.0, 0.0])
        assert np.allclose(y, [2.0])


class TestAddNoise:
    def test_zero_std_identity(self):
        y = np.array([1.0, 2.0])
        out = add_noise(y, 0.0, seed=0, trial_index=0)
        assert np.array_equal(out, y)
        assert out is not y

    def test_negative_std_error(self):
        with pytest.raises(ValidationError):
            add_noise(np.zeros(2), -1.0, seed=0, trial_index=0)

    def test_deterministic(self):
        y = np.zeros(8)
        a = add_noise(y, 0.01, seed=3, trial_index=4)
        b = add_noise(y, 0.01, seed=3, trial_index=4)
        assert np.array_equal(a, b)
        c = add_noise(y, 0.01, seed=3, trial_index=5)
        assert not np.array_equal(a, c)

    def test_sample_statistics(self):
        n = 100_000
        samples = add_noise(np.zeros(n), 0.01, seed=0, trial_index=0)
        std = samples.std(ddof=1)
        assert abs(std / 0.01 - 1.0) < 0.01
        assert abs(samples.mean()) < 3 * 0.01 / np.sqrt(n)


class TestDefaultEpsilon:
    def test_noiseless_zero(self):
        assert default_epsilon(0.0, 7) == 0.0

    def test_scales_with_sqrt_meters(self):
        assert default_epsilon(0.01, 9) == pytest.approx(3 * default_epsilon(0.01, 1))


class TestRunTrial:
    def test_noiseless_sparse_success(self, ieee9_spec):
        result = run_trial(ieee9_spec(sparsity=1), "cs", 0)
        assert result.success
        assert result.max_relative_error < 0.05
        assert result.rmse < 1e-6

    def test_min_energy_less_accurate(self, ieee9_spec):
        spec = ieee9_spec(sparsity=1)
        cs = run_trial(spec, "cs", 0)
        me = run_trial(spec, "min_energy", 0)
        assert np.array_equal(cs.true_injections, me.true_injections)
        assert me.rmse > cs.rmse

    def test_dense_state_fails(self, ieee9_spec):
        # S = M with 7 meters: information-theoretic deficit
        result = run_trial(ieee9_spec(sparsity=9), "cs", 0)
        assert not result.success

    def test_unknown_estimator(self, ieee9_spec):
        with pytest.raises(ValidationError):
            run_trial(ieee9_spec(), "omp", 0)

    def test_unsupported_devices_rejected(self):
        net = DcNetwork(
            (Bus(id=1, shunt_resistance=1.0), Bus(id=2)),
            (Branch(1, 2, 1.0),),
            (InjectionDevice(2, "constant_power", 1.0),),
        )
        model = build_impedance_model(net)
        plan = greedy_place_sensors(model, 1)
        spec = ScenarioSpec(network=net, model=model, placement=plan, sparsity=1, seed=0)
        with pytest.raises(ValidationError):
            run_trial(spec, "cs", 0)


def _reference_run_trial(spec, estimator, trial_index, cfg=None):
    """run_trial through the general snapshot pipeline, one trial at a time.

    The test-only oracle for run_trial's per-plan context: the cs estimate
    goes through MeasurementSet and estimate_state, with every per-plan
    quantity recomputed for the trial.
    """
    model = spec.model
    m = model.size
    fixed = {
        d.bus: d.value for d in spec.network.devices if d.kind == "current_source"
    }
    i_true = sample_sparse_state(m, spec, trial_index)
    for b, val in fixed.items():
        i_true[b - 1] = val
    y = simulate_measurements(model, spec.placement, i_true)
    y = add_noise(y, spec.noise_std, spec.seed, trial_index)

    if estimator == "cs":
        if cfg is None:
            cfg = SolverConfig(epsilon=default_epsilon(spec.noise_std, len(y)))
        meas = MeasurementSet(
            voltage_readings=dict(zip(spec.placement.chosen, y)),
            known_injections=fixed,
        )
        est = estimate_state(model, meas, spec.placement, cfg)
        estimate, route, converged = est.injections, est.route, est.converged
    else:
        y_off = apply_current_offsets(y, model, spec.placement.chosen, fixed)
        unknown = [b for b in range(1, m + 1) if b not in fixed]
        a = model.impedance[np.array(spec.placement.chosen) - 1][:, np.array(unknown) - 1]
        estimate = np.zeros(m)
        estimate[np.array(unknown) - 1] = min_energy(a, y_off)
        for b, val in fixed.items():
            estimate[b - 1] = val
        route, converged = "", True

    err = estimate - i_true
    denom = float(np.abs(i_true).max())
    max_rel = float(np.abs(err).max() / denom)
    rmse = float(np.sqrt(np.mean(err**2)))
    return TrialResult(
        true_injections=i_true,
        estimated_injections=estimate,
        max_relative_error=max_rel,
        rmse=rmse,
        success=max_rel < SUCCESS_THRESHOLD,
        route=route,
        converged=converged,
    )


def assert_trials_identical(got, want):
    for name in ("true_injections", "estimated_injections"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    for name in ("max_relative_error", "rmse"):
        assert getattr(got, name).hex() == getattr(want, name).hex(), name
    assert (got.success, got.route, got.converged) == (want.success, want.route, want.converged)


class TestRunTrialMatchesReference:
    """run_trial's per-plan context gives the snapshot pipeline's results, bit for bit."""

    @pytest.mark.parametrize("estimator", ["cs", "min_energy"])
    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    @pytest.mark.parametrize("placement", ["greedy", "random"])
    def test_ieee9(self, ieee9_network, ieee9_model, estimator, noise_std, placement):
        if placement == "greedy":
            plan = greedy_place_sensors(ieee9_model, 7)
        else:
            plan = random_place_sensors(ieee9_model, 7, seed=4)
        spec = ScenarioSpec(
            ieee9_network, ieee9_model, plan, 2, noise_std=noise_std, seed=19,
        )
        for t in range(10):
            assert_trials_identical(run_trial(spec, estimator, t),
                                    _reference_run_trial(spec, estimator, t))

    @pytest.mark.parametrize("estimator", ["cs", "min_energy"])
    def test_known_current_sources(self, ieee9_network, estimator):
        # current sources are offset from the readings before the solve
        net = DcNetwork(
            ieee9_network.buses, ieee9_network.branches,
            ieee9_network.devices + (
                InjectionDevice(2, "current_source", 0.6),
                InjectionDevice(8, "current_source", -0.4),
            ),
        )
        model = build_impedance_model(net)
        plan = greedy_place_sensors(model, 7)
        for noise_std in (0.0, 0.01):
            spec = ScenarioSpec(net, model, plan, 2, noise_std=noise_std, seed=23)
            # at noise 0.01, trial 2 of this seed falls back to FISTA
            for t in range(4):
                assert_trials_identical(run_trial(spec, estimator, t),
                                        _reference_run_trial(spec, estimator, t))

    @pytest.mark.parametrize("estimator", ["cs", "min_energy"])
    @pytest.mark.parametrize("noise_std", [0.0, 0.01])
    def test_ieee118(self, ieee118_network, ieee118_model, estimator, noise_std):
        plan = greedy_place_sensors(ieee118_model, 60)
        spec = ScenarioSpec(
            ieee118_network, ieee118_model, plan, 2, noise_std=noise_std, seed=1,
        )
        # at noise 0.01 trials 0-2 of this seed take the homotopy route; about
        # half of the others fall back to FISTA, over a second per solve here
        for t in range(3):
            assert_trials_identical(run_trial(spec, estimator, t),
                                    _reference_run_trial(spec, estimator, t))

    def test_epsilon_override(self, ieee9_spec):
        spec = ieee9_spec(sparsity=2, noise_std=0.01)
        cfg = SolverConfig(epsilon=0.05)
        for t in range(10):
            assert_trials_identical(run_trial(spec, "cs", t, cfg),
                                    _reference_run_trial(spec, "cs", t, cfg))


class TestTrialRouteAndConvergence:
    def test_cs_route_from_estimate(self, ieee9_spec):
        result = run_trial(ieee9_spec(sparsity=1), "cs", 0)
        assert result.route == "lp"
        assert result.converged is True

    def test_min_energy_has_no_route(self, ieee9_spec):
        result = run_trial(ieee9_spec(sparsity=1), "min_energy", 0)
        assert result.route == ""
        assert result.converged is True

    def test_forced_fallback_not_converged(self, ieee9_spec, monkeypatch):
        # the LP reports failure and the fallback gets one inner iteration
        monkeypatch.setattr(recon, "_solve_bp_lp", lambda *args: None)
        result = run_trial(ieee9_spec(sparsity=1), "cs", 0, SolverConfig(max_iterations=1))
        assert result.route == "fallback"
        assert result.converged is False


class TestRunBenchmark:
    def test_single_trial_ratios_degenerate(self, ieee9_network, ieee9_model):
        report = run_benchmark(
            ieee9_network, ieee9_model,
            [(1, 7, "greedy", "cs", 0.0)], trials=1, seed=0,
        )
        assert report.cells[0].reconstruction_ratio in (0.0, 1.0)
        assert report.cells[0].trials == 1

    def test_every_cell_present_in_order(self, ieee9_network, ieee9_model):
        cells = [
            (s, k, "greedy", "cs", 0.0) for s in (1, 2) for k in (7, 8)
        ]
        report = run_benchmark(ieee9_network, ieee9_model, cells, trials=2, seed=1)
        assert [(c.sparsity, c.meters) for c in report.cells] == [
            (1, 7), (1, 8), (2, 7), (2, 8)
        ]
        for c in report.cells:
            assert 0.0 <= c.reconstruction_ratio <= 1.0
            assert c.mean_rmse >= 0.0

    def test_thread_count_invariance(self, ieee9_network, ieee9_model):
        cells = [(1, 7, "greedy", "cs", 0.0), (2, 7, "random", "min_energy", 0.01)]
        serial = run_benchmark(ieee9_network, ieee9_model, cells, trials=8, seed=5, threads=1)
        parallel = run_benchmark(ieee9_network, ieee9_model, cells, trials=8, seed=5, threads=4)
        assert serial.to_csv_text() == parallel.to_csv_text()
        assert serial.to_json_text() == parallel.to_json_text()

    def test_dict_cells_accepted(self, ieee9_network, ieee9_model):
        report = run_benchmark(
            ieee9_network, ieee9_model,
            [{"sparsity": 1, "meters": 7, "placement": "greedy", "estimator": "cs"}],
            trials=1, seed=0,
        )
        assert report.cells[0].noise_std == 0.0

    def test_file_placement_plan(self, ieee9_network, ieee9_model):
        plan = greedy_place_sensors(ieee9_model, 6)
        report = run_benchmark(
            ieee9_network, ieee9_model, [(1, 6, plan, "cs", 0.0)], trials=2, seed=0,
        )
        assert report.cells[0].placement == "file"

    def test_file_plan_meter_count_mismatch(self, ieee9_network, ieee9_model):
        plan = greedy_place_sensors(ieee9_model, 7)
        cells = [
            (1, 5, plan, "cs", 0.0),
            {"sparsity": 1, "meters": 3, "placement": plan, "estimator": "min_energy"},
        ]
        for cell in cells:
            with pytest.raises(ValidationError, match="its placement plan has 7"):
                run_benchmark(ieee9_network, ieee9_model, [cell], trials=1, seed=0)

    def test_empty_grid_error(self, ieee9_network, ieee9_model):
        with pytest.raises(ValidationError):
            run_benchmark(ieee9_network, ieee9_model, [], trials=1, seed=0)

    @pytest.mark.parametrize("placement", ["greedy", "random"])
    def test_zero_trials_error(self, ieee9_network, ieee9_model, placement):
        with pytest.raises(ValidationError):
            run_benchmark(
                ieee9_network, ieee9_model, [(1, 7, placement, "cs", 0.0)], trials=0, seed=0,
            )

    @pytest.mark.parametrize("random_placements", [100, 40])
    def test_random_cell_runs_every_trial(self, ieee9_network, ieee9_model, random_placements):
        # 150 is not a multiple of the placement count
        report = run_benchmark(
            ieee9_network, ieee9_model, [(1, 7, "random", "min_energy", 0.0)],
            trials=150, seed=1, random_placements=random_placements,
        )
        assert report.trials == 150
        assert report.cells[0].trials == 150

    def test_unknown_placement_error(self, ieee9_network, ieee9_model):
        with pytest.raises(ValidationError):
            run_benchmark(
                ieee9_network, ieee9_model, [(1, 7, "optimal", "cs", 0.0)], trials=1, seed=0,
            )

    def test_epsilon_override_changes_noisy_cells(self, ieee9_network, ieee9_model):
        cells = [(1, 7, "greedy", "cs", 0.05)]
        auto = run_benchmark(ieee9_network, ieee9_model, cells, trials=6, seed=2)
        huge = run_benchmark(ieee9_network, ieee9_model, cells, trials=6, seed=2, epsilon=10.0)
        # an absurdly wide radius makes the zero estimate feasible, so every
        # trial collapses to all-zero injections and no trial can succeed
        assert huge.cells[0].mean_rmse != auto.cells[0].mean_rmse
        assert huge.cells[0].reconstruction_ratio == 0.0

    def test_serialization_formats(self, ieee9_network, ieee9_model):
        report = run_benchmark(
            ieee9_network, ieee9_model, [(1, 7, "greedy", "cs", 0.0)],
            trials=2, seed=9, model_id="ieee9.case",
        )
        csv = report.to_csv_text()
        assert csv.splitlines()[0].startswith("sparsity,meters,placement")
        assert len(csv.splitlines()) == 2
        js = report.to_json_text()
        assert '"model_id": "ieee9.case"' in js
        table = report.to_table_text()
        assert "ieee9.case" in table and "greedy" in table
        plot = report.to_plot_text()
        assert plot.splitlines()[0].startswith("# series")
        assert "greedy/cs/m7" in plot
