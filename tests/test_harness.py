"""Monte Carlo engine: state sampling, simulation, noise, trials, benchmark grid."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsense import (
    BenchmarkReport,
    CellResult,
    MeasurementSet,
    ScenarioSpec,
    SolverConfig,
    TrialResult,
    ValidationError,
    add_noise,
    apply_current_offsets,
    assemble_measurement_matrix,
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
from gridsense import harness, recon
from gridsense.harness import SUCCESS_THRESHOLD
from gridsense.network import Branch, Bus, DcNetwork, InjectionDevice
from gridsense.sensing import PlacementPlan

from conftest import IEEE9_CURRENT_SOURCES, trial_snapshot

TWO_BUS_Z = invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 2.0]]))  # Z=[[2,1],[1,1]]


@pytest.fixture(scope="module")
def ieee9_spec(ieee9_network, ieee9_model):
    plan = greedy_place_sensors(ieee9_model, 7)

    def make(**overrides):
        kwargs = dict(
            network=ieee9_network, model=ieee9_model, placement=plan,
            sparsity=1, seed=11,
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

    def test_negative_noise(self, ieee9_spec):
        with pytest.raises(ValidationError):
            ieee9_spec(noise_std=-0.01)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_non_finite_noise(self, ieee9_spec, noise_std):
        with pytest.raises(ValidationError, match="noise_std must be finite and >= 0"):
            ieee9_spec(noise_std=noise_std)


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


def _reference_draw(m, spec, trial_index):
    """The state draw as it was made one trial at a time, with the signs
    passed to rng.choice as a list: the oracle for the cell's state array."""
    eligible = eligible_injection_buses(spec.network)
    rng = np.random.default_rng((spec.seed, trial_index, 0))
    support = rng.choice(len(eligible), size=spec.sparsity, replace=False)
    magnitudes = rng.uniform(*harness.INJECTION_RANGE, spec.sparsity)
    signs = rng.choice([-1.0, 1.0], size=spec.sparsity)
    x = np.zeros(m)
    for idx, mag, sign in zip(support, magnitudes, signs):
        x[eligible[idx] - 1] = sign * mag
    return x


class TestStateDrawMatchesReference:
    """sample_sparse_state and a cell's state array are the per-trial draw, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        trials=st.lists(st.integers(0, 10**6), min_size=1, max_size=5),
        sparsity=st.integers(1, 9),
    )
    def test_ieee9(self, ieee9_spec, seed, trials, sparsity):
        spec = ieee9_spec(sparsity=sparsity, seed=seed)
        eligible = eligible_injection_buses(spec.network)
        states = harness._draw_states(9, seed, sparsity, eligible, trials)
        for row, t in zip(states, trials):
            want = _reference_draw(9, spec, t)
            assert row.tobytes() == want.tobytes()
            assert sample_sparse_state(9, spec, t).tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), trial=st.integers(0, 10**4), sparsity=st.integers(1, 7))
    def test_fixed_buses_excluded(self, ieee9_current_source_spec, seed, trial, sparsity):
        spec = dataclasses.replace(ieee9_current_source_spec, sparsity=sparsity, seed=seed)
        want = _reference_draw(9, spec, trial)
        assert sample_sparse_state(9, spec, trial).tobytes() == want.tobytes()
        eligible = eligible_injection_buses(spec.network)
        got = harness._draw_states(9, seed, sparsity, eligible, [trial])[0]
        assert got.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_non_finite_std_error(self, noise_std):
        with pytest.raises(ValidationError, match="noise_std must be finite and >= 0"):
            add_noise(np.zeros(2), noise_std, seed=0, trial_index=0)

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
    def test_known_current_sources(self, ieee9_current_source_spec, estimator):
        # current sources are offset from the readings before the solve
        for noise_std in (0.0, 0.01):
            spec = dataclasses.replace(ieee9_current_source_spec, noise_std=noise_std)
            # at noise 0.01, no point lies within epsilon of trial 2's
            # readings: the least-squares point, not converged
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
        # at noise 0.01 every one of trials 0-39 of this seed takes the
        # homotopy route; three keep the test short
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
        # the LP reports failure, so the least-squares point comes back
        monkeypatch.setattr(recon, "_solve_bp_lp", lambda *args: None)
        result = run_trial(ieee9_spec(sparsity=1), "cs", 0)
        assert result.route == "fallback"
        assert result.converged is False


class TestLeastSquaresGiveUp:
    """Snapshots that no point fits within epsilon: the solve returns the
    least-squares point at once, not converged, with route "fallback"."""

    # the 7 unknown columns of ieee9_current_source_spec have rank 6, and
    # the least-squares residuals of trials 2, 4 and 8 (0.0197, 0.0207 and
    # 0.0140) exceed epsilon = 0.01323, so the homotopy finds no crossing
    @pytest.mark.parametrize("trial", [2, 4, 8])
    def test_known_current_sources(self, ieee9_current_source_spec, trial):
        spec = ieee9_current_source_spec
        model, plan = spec.model, spec.placement
        result = run_trial(spec, "cs", trial)
        assert (result.route, result.converged) == ("fallback", False)

        meas = trial_snapshot(spec, trial)
        eps = default_epsilon(spec.noise_std, len(plan.chosen))
        est = estimate_state(model, meas, plan, SolverConfig(epsilon=eps))
        assert (est.route, est.converged, est.iterations_used) == ("fallback", False, 0)

        rows = sorted(plan.chosen)
        known = sorted(IEEE9_CURRENT_SOURCES)
        unknown = [b for b in range(1, 10) if b not in IEEE9_CURRENT_SOURCES]
        currents = [IEEE9_CURRENT_SOURCES[b] for b in known]
        y_off = np.array([meas.voltage_readings[b] for b in rows])
        y_off -= assemble_measurement_matrix(model, rows, known) @ currents
        a = assemble_measurement_matrix(model, rows, unknown)
        norms = np.linalg.norm(a, axis=0)
        an = a / norms
        beta = np.linalg.lstsq(an, y_off, rcond=None)[0]
        assert np.linalg.matrix_rank(a) == 6
        assert np.linalg.norm(y_off - an @ beta) > eps
        want = np.zeros(9)
        want[np.array(known) - 1] = currents
        want[np.array(unknown) - 1] = beta / norms
        assert np.array_equal(est.injections, want)
        assert np.array_equal(result.estimated_injections, want)


class TestDistinctPlanContexts:
    """A cell sets up each distinct plan once; its report equals per-trial set-up."""

    @staticmethod
    def fresh_cell(network, model, cell, trials, seed):
        # the cell of grid index 0, each trial on its own run_trial context
        sparsity, meters, _, estimator, noise_std = cell
        cseed = harness._cell_seed(seed, 0)
        plans = [
            random_place_sensors(model, meters, seed=harness._cell_seed(cseed, p + 1))
            for p in range(min(harness.RANDOM_PLACEMENTS, trials))
        ]
        results = [
            run_trial(
                ScenarioSpec(network, model, plans[t * len(plans) // trials], sparsity,
                             noise_std=noise_std, seed=cseed),
                estimator, t,
            )
            for t in range(trials)
        ]
        ratio = sum(r.success for r in results) / trials
        return plans, ratio, float(np.mean([r.rmse for r in results]))

    @pytest.mark.parametrize(
        "cell", [(2, 8, "random", "cs", 0.0), (1, 7, "random", "min_energy", 0.01)]
    )
    def test_one_system_per_distinct_plan(self, monkeypatch, ieee9_network, ieee9_model, cell):
        plans, ratio, rmse = self.fresh_cell(ieee9_network, ieee9_model, cell, 150, seed=6)
        built = []

        class CountedSystem(recon.MeasurementSystem):
            def __init__(self, model, row_buses, known):
                built.append(tuple(sorted(row_buses)))
                super().__init__(model, row_buses, known)

        monkeypatch.setattr(harness, "MeasurementSystem", CountedSystem)
        report = run_benchmark(ieee9_network, ieee9_model, [cell], trials=150, seed=6)
        distinct = {plan.chosen for plan in plans}
        # 7 or 8 of 9 buses: at most 36 sets among the 100 placements
        assert len(distinct) < len(plans)
        assert sorted(built) == sorted(distinct)
        got = report.cells[0]
        assert (got.reconstruction_ratio, got.mean_rmse) == (ratio, rmse)


class TestOneBlockPerPlan:
    """A random cell solves each distinct plan as one block: its trials in
    ascending order, its system built and its LP model passed once."""

    @staticmethod
    def cell_plans(model, meters, trials, seed):
        # trial t's plan in the cell of grid index 0
        cseed = harness._cell_seed(seed, 0)
        plans = [
            harness.random_sensor_buses(model.size, meters, harness._cell_seed(cseed, p + 1))
            for p in range(min(harness.RANDOM_PLACEMENTS, trials))
        ]
        return [plans[t * len(plans) // trials] for t in range(trials)]

    def test_solve_block_once_per_plan(self, monkeypatch, ieee9_network, ieee9_model):
        calls = []
        solve_block = harness._solve_block

        def spy(plan_system, cfg, noise_std, seed, trials, states, estimates):
            calls.append(list(trials))
            return solve_block(plan_system, cfg, noise_std, seed, trials, states, estimates)

        monkeypatch.setattr(harness, "_solve_block", spy)
        run_benchmark(ieee9_network, ieee9_model, [(2, 8, "random", "cs", 0.0)],
                      trials=100, seed=4)
        blocks = {}
        for t, plan in enumerate(self.cell_plans(ieee9_model, 8, 100, seed=4)):
            blocks.setdefault(plan, []).append(t)
        # 8 of 9 buses: at most 9 sets among the 100 placements
        assert len(calls) == len(blocks) <= 9
        assert sorted(calls) == sorted(blocks.values())

    def test_lp_model_passed_once_per_plan(self, counted_solver, ieee9_network, ieee9_model):
        run_benchmark(ieee9_network, ieee9_model, [(1, 7, "random", "cs", 0.0)],
                      trials=100, seed=9)
        distinct = set(self.cell_plans(ieee9_model, 7, 100, seed=9))
        assert 1 < len(distinct) < 100
        assert counted_solver.passes == len(distinct)


class TestListBuiltPlan:
    """A plan built from lists runs as the same plan built from tuples."""

    def test_campaign_and_trial(self, ieee9_network, ieee9_model):
        listed = PlacementPlan([1, 2, 3, 4, 5, 6, 8], [], 0.5)
        tupled = PlacementPlan((1, 2, 3, 4, 5, 6, 8), (), 0.5)
        reports = [
            run_benchmark(ieee9_network, ieee9_model,
                          [(2, 7, plan, "cs", 0.0), (1, 7, plan, "min_energy", 0.01)],
                          trials=20, seed=3).to_json_text()
            for plan in (listed, tupled)
        ]
        assert reports[0] == reports[1]
        trials = [
            run_trial(ScenarioSpec(ieee9_network, ieee9_model, plan, 2, seed=3), "cs", 5)
            for plan in (listed, tupled)
        ]
        assert np.array_equal(trials[0].estimated_injections, trials[1].estimated_injections)


class _ReferenceTrialContext:
    """One plan's set-up and its per-trial run, as a cell ran them trial by
    trial before it ran as arrays; returns each trial's (success, rmse)."""

    def __init__(self, spec, estimator, cfg):
        self.spec = spec
        self.fixed = {
            d.bus: d.value for d in spec.network.devices if d.kind == "current_source"
        }
        chosen = spec.placement.chosen
        cs = estimator == "cs"
        self.system = recon.MeasurementSystem(
            spec.model, sorted(chosen) if cs else chosen, self.fixed
        )
        self.rows = spec.model.impedance[np.array(chosen) - 1]
        self.order = np.argsort(chosen) if cs else slice(None)
        if cs and cfg is None:
            cfg = SolverConfig(epsilon=default_epsilon(spec.noise_std, len(chosen)))
        self.cfg = cfg if cs else None

    def run(self, trial_index):
        spec = self.spec
        i_true = _reference_draw(spec.model.size, spec, trial_index)
        for b, val in self.fixed.items():
            i_true[b - 1] = val
        y = add_noise(self.rows @ i_true, spec.noise_std, spec.seed, trial_index)[self.order]
        if self.cfg is not None:
            estimate = self.system.bpdn(y, self.cfg).injections
        else:
            estimate = self.system.min_energy(y)
        err = estimate - i_true
        max_rel = float(np.abs(err).max() / float(np.abs(i_true).max()))
        return max_rel < SUCCESS_THRESHOLD, float(np.sqrt(np.mean(err**2)))


def _reference_run_benchmark(network, model, cells, trials, seed, model_id="", epsilon=None):
    """run_benchmark as a per-trial loop, one result per trial: the oracle for
    the draw, solve and score passes. Takes valid grids only."""
    cfg = None if epsilon is None else SolverConfig(epsilon=epsilon)
    results = []
    for idx, (sparsity, meters, placement, estimator, noise_std) in enumerate(cells):
        cseed = harness._cell_seed(seed, idx)
        if isinstance(placement, PlacementPlan):
            plans, placement = [placement], "file"
        elif placement == "greedy":
            plans = [greedy_place_sensors(model, meters)]
        else:
            plans = [
                random_place_sensors(model, meters, seed=harness._cell_seed(cseed, p + 1))
                for p in range(min(harness.RANDOM_PLACEMENTS, trials))
            ]
        last_block = {plan: p for p, plan in enumerate(plans)}
        contexts = {}
        trial_results = []
        for p, block in itertools.groupby(range(trials), lambda t: t * len(plans) // trials):
            plan = plans[p]
            if plan not in contexts:
                spec = ScenarioSpec(network, model, plan, sparsity, noise_std=noise_std, seed=cseed)
                contexts[plan] = _ReferenceTrialContext(spec, estimator, cfg)
            context = contexts.pop(plan) if last_block[plan] == p else contexts[plan]
            trial_results += [context.run(t) for t in block]
        results.append(CellResult(
            sparsity=sparsity, meters=meters, placement=placement, estimator=estimator,
            noise_std=noise_std,
            reconstruction_ratio=sum(1 for ok, _ in trial_results if ok) / trials,
            mean_rmse=float(np.mean([rmse for _, rmse in trial_results])),
            trials=trials, seed=cseed,
        ))
    return BenchmarkReport(tuple(results), seed=seed, trials=trials, model_id=model_id)


class TestRunBenchmarkMatchesReference:
    """Each cell's draw, solve and score passes give the per-trial loop's report, byte for byte."""

    @staticmethod
    def assert_same_report(network, model, cells, trials, **kwargs):
        got = run_benchmark(network, model, cells, trials=trials, seed=8, **kwargs)
        want = _reference_run_benchmark(network, model, cells, trials=trials, seed=8, **kwargs)
        assert got.to_json_text() == want.to_json_text()

    @staticmethod
    def grid(model, sparsity, meters, noise, estimators=("cs", "min_energy")):
        plan = greedy_place_sensors(model, meters)
        return [
            (s, meters, pl, est, nz)
            for s in sparsity
            for pl in ("greedy", "random", plan)
            for est in estimators
            for nz in noise
        ]

    def test_ieee9(self, ieee9_network, ieee9_model):
        # 150 trials: not a multiple of the 100 random placements
        cells = self.grid(ieee9_model, (1, 2), 7, (0.0, 0.01))
        self.assert_same_report(ieee9_network, ieee9_model, cells, 150, model_id="ieee9.case")

    def test_known_current_sources(self, ieee9_current_source_spec):
        spec = ieee9_current_source_spec
        cells = self.grid(spec.model, (2,), 7, (0.0, 0.01))
        self.assert_same_report(spec.network, spec.model, cells, 150)

    def test_epsilon_override(self, ieee9_network, ieee9_model):
        cells = self.grid(ieee9_model, (1, 2), 8, (0.0, 0.01), estimators=("cs",))
        self.assert_same_report(ieee9_network, ieee9_model, cells, 150, epsilon=0.02)

    def test_ieee118(self, ieee118_network, ieee118_model):
        cells = self.grid(ieee118_model, (2,), 60, (0.0,))
        cells += self.grid(ieee118_model, (2,), 60, (0.01,), estimators=("min_energy",))
        self.assert_same_report(ieee118_network, ieee118_model, cells, 150)

    def test_ieee118_noisy_cs(self, ieee118_network, ieee118_model):
        # noisy 118-bus solves take the homotopy, the slowest route: few trials
        cells = self.grid(ieee118_model, (2,), 60, (0.01,), estimators=("cs",))
        self.assert_same_report(ieee118_network, ieee118_model, cells, 12)


class TestGridCheckedBeforeAnyTrial:
    """A grid with a bad cell fails before any trial of any cell is solved."""

    VALID = [(1, 7, "greedy", "cs", 0.0), (2, 7, "random", "min_energy", 0.01)]

    @pytest.fixture
    def solved(self, monkeypatch):
        calls = []
        solve_block = harness._solve_block

        def spy(*args):
            calls.append(args)
            return solve_block(*args)

        monkeypatch.setattr(harness, "_solve_block", spy)
        return calls

    def test_spy_sees_the_solves(self, solved, ieee9_network, ieee9_model):
        run_benchmark(ieee9_network, ieee9_model, self.VALID, trials=3, seed=1)
        assert len(solved) == 1 + 3

    @pytest.mark.parametrize(
        "bad_cell, message",
        [
            ((10, 7, "greedy", "cs", 0.0), "sparsity must be in 1..9"),
            ((1, 7, "greedy", "omp", 0.0), "estimator must be one of"),
            ((1, 7, "optimal", "cs", 0.0), "unknown placement method 'optimal'"),
            ((1, 7, "greedy", "cs", float("nan")), "noise_std must be finite and >= 0"),
            ((1, 7, "random", "cs", -0.1), "noise_std must be finite and >= 0"),
            ((1, 10, "greedy", "cs", 0.0), r"meters must be in 1\.\.9, got 10"),
            ((1, 0, "random", "cs", 0.0), r"meters must be in 1\.\.9, got 0"),
            ((1, 3, PlacementPlan((0, 3, 5), (), 0.5), "cs", 0.0), "unknown bus id 0"),
            ((1, 3, PlacementPlan((3, 3, 5), (), 0.5), "cs", 0.0), "duplicate sensor buses"),
        ],
    )
    def test_bad_last_cell(self, solved, ieee9_network, ieee9_model, bad_cell, message):
        with pytest.raises(ValidationError, match=message):
            run_benchmark(ieee9_network, ieee9_model, self.VALID + [bad_cell], trials=3, seed=1)
        assert solved == []

    def test_sparsity_above_eligible_buses(self, solved, ieee9_current_source_spec):
        spec = ieee9_current_source_spec  # buses 2 and 8 are known: 7 eligible
        cells = self.VALID + [(8, 7, "greedy", "cs", 0.0)]
        with pytest.raises(ValidationError, match="sparsity 8 exceeds the 7 eligible buses"):
            run_benchmark(spec.network, spec.model, cells, trials=3, seed=1)
        assert solved == []

    def test_unsupported_devices(self, solved):
        net = DcNetwork(
            (Bus(id=1, shunt_resistance=1.0), Bus(id=2)),
            (Branch(1, 2, 1.0),),
            (InjectionDevice(2, "constant_power", 1.0),),
        )
        with pytest.raises(ValidationError, match=r"found \['constant_power'\]"):
            run_benchmark(net, build_impedance_model(net), [(1, 1, "greedy", "cs", 0.0)],
                          trials=3, seed=1)
        assert solved == []

    def test_negative_seed_named(self, solved, ieee9_network, ieee9_model):
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            run_benchmark(ieee9_network, ieee9_model, self.VALID, trials=3, seed=-1)
        assert solved == []


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
            (1, 3, plan, "min_energy", 0.0),
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

    def test_random_cell_runs_every_trial(self, ieee9_network, ieee9_model):
        # 150 is not a multiple of the RANDOM_PLACEMENTS = 100 placements
        report = run_benchmark(
            ieee9_network, ieee9_model, [(1, 7, "random", "min_energy", 0.0)],
            trials=150, seed=1,
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
