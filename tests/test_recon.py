"""Sparse reconstruction: offsets, min-energy, l0 oracle, BPDN, Newton, pipeline."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gridsense import (
    CaseParseError,
    MeasurementSet,
    NewtonDivergenceError,
    PlacementPlan,
    ScenarioSpec,
    SolverConfig,
    ValidationError,
    apply_current_offsets,
    constant_power_newton,
    estimate_state,
    greedy_place_sensors,
    invert_to_impedance,
    jacobian_power_rows,
    min_energy,
    run_trial,
    sample_sparse_state,
    solve_bpdn,
    solve_l0_oracle,
)
import gridsense
from gridsense import recon
from gridsense.recon import SparseEstimate

from conftest import random_connected_network
from gridsense import build_impedance_model

TWO_BUS_Z = invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 2.0]]))  # Z=[[2,1],[1,1]]
SCALAR_Z2 = invert_to_impedance(np.array([[0.5]]))  # Z=[[2]]


def plan_for(buses):
    return PlacementPlan(chosen=tuple(buses), objective_trace=(0.0,), final_coherence=0.0)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.epsilon == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": -1.0},
            {"max_iterations": 0},
            {"newton_max_iter": 0},
            {"convergence_tol": 0.0},
            {"newton_tol": -1e-9},
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValidationError):
            SolverConfig(**kwargs)


class TestApplyCurrentOffsets:
    def test_empty_known_map(self):
        y = np.array([1.0, 2.0])
        out = apply_current_offsets(y, TWO_BUS_Z, [1, 2], {})
        assert np.array_equal(out, y)
        assert out is not y

    def test_single_known_column(self):
        y = np.array([3.0, 3.0])
        out = apply_current_offsets(y, TWO_BUS_Z, [1, 2], {2: 1.0})
        assert np.allclose(out, [2.0, 2.0])  # subtracts column 2 of Z, (1, 1)

    def test_unknown_bus_error(self):
        with pytest.raises(ValidationError):
            apply_current_offsets(np.zeros(2), TWO_BUS_Z, [1, 2], {99: 1.0})

    def test_length_mismatch_error(self):
        with pytest.raises(ValidationError):
            apply_current_offsets(np.zeros(3), TWO_BUS_Z, [1, 2], {})

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_offset_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        model = build_impedance_model(random_connected_network(rng, 6))
        sensors = sorted(rng.choice(6, size=3, replace=False) + 1)
        known = {int(b): float(rng.normal()) for b in rng.choice(6, size=2, replace=False) + 1}
        y = rng.normal(size=3)
        y_off = apply_current_offsets(y, model, sensors, known)
        cols = np.array(sorted(known)) - 1
        currents = np.array([known[b] for b in sorted(known)])
        restored = y_off + model.impedance[np.array(sensors) - 1][:, cols] @ currents
        assert np.allclose(restored, y, atol=1e-12)


class TestMinEnergy:
    def test_underdetermined_line(self):
        assert np.allclose(min_energy([[1.0, 1.0]], [2.0]), [1.0, 1.0])

    def test_square_invertible(self):
        a = np.array([[2.0, 1.0], [1.0, 1.0]])
        y = np.array([3.0, 2.0])
        assert np.allclose(min_energy(a, y), np.linalg.solve(a, y))

    def test_inconsistent_least_squares(self):
        out = min_energy([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])
        assert np.allclose(out, [1.5, 0.0])

    def test_empty_error(self):
        with pytest.raises(ValidationError):
            min_energy(np.zeros((0, 0)), np.zeros(0))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(-100, 100).filter(lambda c: abs(c) > 1e-6))
    def test_linearity(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 6))
        y = rng.standard_normal(3)
        assert np.allclose(min_energy(a, scale * y), scale * min_energy(a, y), atol=1e-9 * abs(scale))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_space_membership(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 6))
        x = min_energy(a, rng.standard_normal(3))
        proj = np.linalg.pinv(a) @ a
        assert np.linalg.norm(x - proj @ x) < 1e-10


class TestL0Oracle:
    def test_unique_one_sparse(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        est = solve_l0_oracle(a, [2.0, 2.0], s_max=2, tol=1e-10)
        assert np.allclose(est.injections, [0.0, 0.0, 2.0])
        assert est.support == (3,)
        assert est.converged

    def test_zero_rhs(self):
        est = solve_l0_oracle(np.eye(3), np.zeros(3), s_max=2, tol=1e-10)
        assert est.support == ()
        assert np.array_equal(est.injections, np.zeros(3))

    def test_infeasible_returns_none(self):
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert solve_l0_oracle(a, [1.0, 1.0, 1.0], s_max=2, tol=1e-12) is None

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            solve_l0_oracle(np.ones((2, 26)), np.ones(2), s_max=1, tol=1e-8)
        with pytest.raises(ValidationError):
            solve_l0_oracle(np.ones((2, 3)), np.ones(2), s_max=5, tol=1e-8)


class TestSolveBpdn:
    def test_equality_case_analytic(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        est = solve_bpdn(a, [2.0, 2.0], SolverConfig(epsilon=0.0))
        assert np.allclose(est.injections, [0.0, 0.0, 2.0], atol=1e-4)
        assert est.converged

    def test_large_epsilon_zero_solution(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = np.array([0.3, 0.4])
        est = solve_bpdn(a, y, SolverConfig(epsilon=0.6))
        assert np.array_equal(est.injections, np.zeros(2))
        assert est.support == ()
        assert est.residual_norm == pytest.approx(0.5)

    def test_non_finite_input_error(self):
        with pytest.raises(ValidationError):
            solve_bpdn(np.array([[np.nan, 1.0]]), [1.0], SolverConfig())

    def test_empty_matrix_error(self):
        with pytest.raises(ValidationError):
            solve_bpdn(np.zeros((0, 0)), np.zeros(0), SolverConfig())

    def test_residual_within_epsilon(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 12))
        x = np.zeros(12)
        x[[2, 9]] = [1.2, -0.7]
        y = a @ x + 0.01 * rng.standard_normal(6)
        cfg = SolverConfig(epsilon=0.05)
        est = solve_bpdn(a, y, cfg)
        assert est.residual_norm <= cfg.epsilon + 1e-7
        assert est.converged

    def test_route_zero(self):
        est = solve_bpdn(np.eye(2), [0.3, 0.4], SolverConfig(epsilon=0.6))
        assert est.route == "zero"

    def test_route_lp(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert solve_bpdn(a, [2.0, 2.0], SolverConfig(epsilon=0.0)).route == "lp"

    def test_route_homotopy(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert solve_bpdn(a, [2.0, 2.0], SolverConfig(epsilon=0.1)).route == "homotopy"

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_objective_trace_non_increasing(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 10))
        x = np.zeros(10)
        x[rng.choice(10, 2, replace=False)] = rng.uniform(0.5, 1.5, 2)
        y = a @ x + 0.01 * rng.standard_normal(5)
        est = solve_bpdn(a, y, SolverConfig(epsilon=0.03))
        trace = np.array(est.objective_trace)
        assert trace.size >= 1
        assert np.all(np.diff(trace) <= 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 50.0))
    def test_positive_homogeneity_noiseless(self, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 12))
        x = np.zeros(12)
        x[rng.choice(12, 2, replace=False)] = rng.uniform(0.5, 1.5, 2) * rng.choice([-1, 1], 2)
        y = a @ x
        cfg = SolverConfig(epsilon=0.0)
        base = solve_bpdn(a, y, cfg).injections
        scaled = solve_bpdn(a, scale * y, cfg).injections
        assert np.allclose(scaled, scale * base, atol=1e-6 * max(1.0, scale))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_l0_oracle_noiseless(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((6, 12))
        x = np.zeros(12)
        x[rng.choice(12, 2, replace=False)] = rng.uniform(0.5, 1.5, 2) * rng.choice([-1, 1], 2)
        y = a @ x
        from gridsense import gram_coherence

        if gram_coherence(a).mutual_coherence >= 0.6:
            return
        oracle = solve_l0_oracle(a, y, s_max=2, tol=1e-8)
        est = solve_bpdn(a, y, SolverConfig(epsilon=0.0))
        assert est.support == oracle.support
        assert np.abs(est.injections - oracle.injections).max() < 1e-4


class TestBpdnFallback:
    """Inputs on which the homotopy gives up, so the FISTA bisection runs."""

    @pytest.fixture
    def fallback_calls(self, monkeypatch):
        calls = []
        inner = recon._bpdn_cd_bisect

        def spy(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(recon, "_bpdn_cd_bisect", spy)
        return calls

    def test_near_duplicate_columns_converge(self, fallback_calls):
        a = np.array([[1.0, 1.0 + 1e-9, 0.2], [0.3, 0.3, 1.0], [0.1, 0.1 + 1e-9, 0.5]])
        y = np.array([1.0, 0.5, 0.2])
        cfg = SolverConfig(epsilon=0.01)
        start = time.perf_counter()
        est = solve_bpdn(a, y, cfg)
        elapsed = time.perf_counter() - start
        assert len(fallback_calls) == 1
        assert est.converged
        assert np.linalg.norm(y - a @ est.injections) <= cfg.epsilon + cfg.convergence_tol
        assert elapsed < 1.0

    def test_least_squares_above_epsilon_not_converged(self, fallback_calls):
        est = solve_bpdn(np.array([[1.0], [0.0]]), [0.0, 1.0], SolverConfig(epsilon=0.1))
        assert len(fallback_calls) == 1
        assert not est.converged
        assert est.residual_norm == pytest.approx(1.0)

    def test_route_fallback(self, fallback_calls):
        est = solve_bpdn(np.array([[1.0], [0.0]]), [0.0, 1.0], SolverConfig(epsilon=0.1))
        assert len(fallback_calls) == 1
        assert est.route == "fallback"

    @pytest.mark.parametrize(
        "a, y",
        [([[1.0], [0.0]], [0.0, 1.0]), ([[1.0, 1.0], [0.0, 0.0]], [1.0, 1e-3])],
    )
    def test_infeasible_lp_not_converged(self, fallback_calls, a, y):
        # y outside range(A): the equality LP has no solution
        est = solve_bpdn(np.array(a), y, SolverConfig(epsilon=0.0))
        assert len(fallback_calls) == 1
        assert est.route == "fallback"
        assert est.converged is False


def _reference_bp_lp(an, y, ftol):
    """The eps=0 LP through scipy's linprog(method="highs"): oracle for _solve_bp_lp."""
    m = an.shape[1]
    res = linprog(
        np.ones(2 * m), A_eq=np.hstack([an, -an]), b_eq=y, bounds=(0, None), method="highs"
    )
    if not res.success:
        return None
    x = res.x[:m] - res.x[m:]
    x[np.abs(x) < 1e-12 * max(1.0, np.abs(x).max())] = 0.0
    residual = float(np.linalg.norm(y - an @ x))
    if residual > ftol:
        return None
    return x, residual, int(res.nit)


class TestBpLpOracle:
    """The direct HiGHS call returns linprog's x and iteration count, bit for bit."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        inner = recon._solve_bp_lp

        def spy(an, y, ftol, *rest):
            out = inner(an, y, ftol, *rest)
            calls.append(((an, y, ftol), out))
            return out

        monkeypatch.setattr(recon, "_solve_bp_lp", spy)
        return calls

    @staticmethod
    def assert_matches_linprog(calls):
        for args, got in calls:
            want = _reference_bp_lp(*args)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]

    @pytest.mark.parametrize(
        "a, y",
        [
            ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [2.0, 2.0]),
            ([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.4]),
            ([[1.0], [0.0]], [2.0, 0.0]),
            ([[1.0], [0.0]], [0.0, 1.0]),
            ([[1.0, 1.0], [0.0, 0.0]], [1.0, 1e-3]),
        ],
    )
    def test_hand_matrices_with_exact_zeros(self, lp_calls, a, y):
        solve_bpdn(np.array(a), y, SolverConfig(epsilon=0.0))
        assert len(lp_calls) == 1
        self.assert_matches_linprog(lp_calls)

    @pytest.mark.parametrize("meters", [7, 8])
    @pytest.mark.parametrize("sparsity", [1, 2, 3])
    def test_ieee9_greedy_plans(self, lp_calls, ieee9_network, ieee9_model, meters, sparsity):
        plan = greedy_place_sensors(ieee9_model, meters)
        spec = ScenarioSpec(ieee9_network, ieee9_model, plan, sparsity, seed=meters * 10 + sparsity)
        for t in range(30):
            run_trial(spec, "cs", t)
        assert len(lp_calls) == 30
        assert all(out is not None for _, out in lp_calls)
        self.assert_matches_linprog(lp_calls)

    def test_ieee118_greedy_plan(self, lp_calls, ieee118_network, ieee118_model):
        plan = greedy_place_sensors(ieee118_model, 60)
        spec = ScenarioSpec(ieee118_network, ieee118_model, plan, 2, seed=118)
        for t in range(24):
            run_trial(spec, "cs", t)
        assert len(lp_calls) == 24
        assert all(out is not None for _, out in lp_calls)
        self.assert_matches_linprog(lp_calls)

    def test_infeasible_then_feasible_on_one_solver(self, lp_calls):
        # passModel resets the thread's solver: an infeasible model leaves
        # nothing behind for the next one
        solver = recon._highs_solver()[1]
        cfg = SolverConfig(epsilon=0.0)
        solve_bpdn(np.array([[1.0], [0.0]]), [0.0, 1.0], cfg)
        solve_bpdn(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), [2.0, 2.0], cfg)
        assert recon._highs_solver()[1] is solver
        assert [out is None for _, out in lp_calls] == [True, False]
        self.assert_matches_linprog(lp_calls)

    def test_interleaved_random_models(self, lp_calls):
        # one problem set up per matrix, one in three right-hand sides infeasible
        rng = np.random.default_rng(5)
        cfg = SolverConfig(epsilon=0.0, max_iterations=50)
        for k in range(12):
            a = rng.standard_normal((4, 8))
            a[rng.random(a.shape) < 0.2] = 0.0
            a[3] = 0.0
            problem = recon.BpdnProblem(a)
            for j in range(3):
                y = a @ (rng.standard_normal(8) * (rng.random(8) < 0.3))
                if (k + j) % 3 == 0:
                    y[3] = 1.0  # the all-zero row cannot meet it
                problem.solve(y, cfg)
        assert len(lp_calls) == 36
        assert sum(out is None for _, out in lp_calls) == 12
        self.assert_matches_linprog(lp_calls)

    def test_each_thread_has_its_own_solver(self):
        # more threads than cores, switching often: every thread's LP answers
        # equal the serial ones, so no solve saw another thread's model
        rng = np.random.default_rng(8)
        cfg = SolverConfig(epsilon=0.0)
        work = []
        for _ in range(4):
            a = rng.standard_normal((5, 10))
            ys = [a @ (rng.standard_normal(10) * (rng.random(10) < 0.3)) for _ in range(25)]
            work.append((a, ys))
        serial = [[solve_bpdn(a, y, cfg).injections for y in ys] for a, ys in work]
        results, solvers = {}, {}

        def run(i):
            problem = recon.BpdnProblem(work[i][0])
            results[i] = [problem.solve(y, cfg).injections for y in work[i][1]]
            solvers[i] = recon._highs_solver()[1]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, want in enumerate(serial):
            assert all(np.array_equal(g, w) for g, w in zip(results[i], want, strict=True))
        assert len({id(solver) for solver in solvers.values()}) == len(work)


class TestHomotopyCertificate:
    @pytest.fixture
    def fallback_skipped(self, monkeypatch):
        # the FISTA fallback takes over a second on this plan; the route is
        # what matters here, so it returns "nothing feasible found" at once
        monkeypatch.setattr(recon, "_bpdn_cd_bisect", lambda *args: (None, None, 0, [], False))

    def test_tiny_epsilon_ieee118(self, fallback_skipped, ieee118_network, ieee118_model):
        # at eps = 1e-9 ||y|| the crossing weight is ~1e-10, below the
        # absolute 1e-9 slack the certificate once had; it then accepted this
        # trial's point at 17x the LP's l1 norm
        plan = greedy_place_sensors(ieee118_model, 60)
        spec = ScenarioSpec(ieee118_network, ieee118_model, plan, 2, seed=1)
        a = ieee118_model.impedance[np.array(sorted(plan.chosen)) - 1]
        y = a @ sample_sparse_state(118, spec, 29)
        est = solve_bpdn(a, y, SolverConfig(epsilon=1e-9 * np.linalg.norm(y)))
        assert est.route in ("fallback", "homotopy")
        if est.route == "homotopy":
            an = a / np.linalg.norm(a, axis=0)
            lp = linprog(np.ones(236), A_eq=np.hstack([an, -an]), b_eq=y,
                         bounds=(0, None), method="highs")
            assert est.objective_trace[-1] == pytest.approx(lp.fun, rel=1e-6)


class TestLazyHighsImport:
    def test_import_loads_no_scipy(self):
        # scipy.optimize is imported by the first eps=0 LP solve, not by the package
        src = os.path.dirname(os.path.dirname(gridsense.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, gridsense, gridsense.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "[]"


class TestJacobianPowerRows:
    def test_scalar_case(self):
        rows = jacobian_power_rows(SCALAR_Z2, [3.0], [1])
        assert np.allclose(rows, [[12.0]])

    def test_two_bus_analytic(self):
        rows = jacobian_power_rows(TWO_BUS_Z, [1.0, 1.0], [1])
        assert np.allclose(rows, [[5.0, 1.0]])

    def test_zero_current_zero_row(self):
        rows = jacobian_power_rows(TWO_BUS_Z, [0.0, 0.0], [1, 2])
        assert np.array_equal(rows, np.zeros((2, 2)))

    def test_unknown_bus_error(self):
        with pytest.raises(ValidationError):
            jacobian_power_rows(TWO_BUS_Z, [0.0, 0.0], [3])

    def test_bad_current_length(self):
        with pytest.raises(ValidationError):
            jacobian_power_rows(TWO_BUS_Z, [0.0], [1])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = build_impedance_model(random_connected_network(rng, 5))
        currents = rng.uniform(0.5, 1.5, 5) * rng.choice([-1.0, 1.0], 5)
        buses = [1, 3, 5]
        rows = jacobian_power_rows(model, currents, buses)
        step = 1e-6

        def power(ivec, bus):
            v = model.impedance @ ivec
            return v[bus - 1] * ivec[bus - 1]

        for r, b in enumerate(buses):
            for j in range(5):
                up = currents.copy()
                dn = currents.copy()
                up[j] += step
                dn[j] -= step
                fd = (power(up, b) - power(dn, b)) / (2 * step)
                denom = max(1.0, abs(fd))
                assert abs(rows[r, j] - fd) / denom < 1e-6


class TestConstantPowerNewton:
    def test_scalar_positive_root(self):
        meas = MeasurementSet(power_constraints={1: 8.0})
        initial = SparseEstimate(
            injections=np.array([0.1]), support=(1,), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        est = constant_power_newton(SCALAR_Z2, meas, SolverConfig(), initial)
        assert est.converged
        assert est.iterations_used <= 30
        assert est.injections[0] == pytest.approx(2.0, abs=1e-8)

    def test_zero_power_fixed_point(self):
        meas = MeasurementSet(power_constraints={1: 0.0})
        initial = SparseEstimate(
            injections=np.array([0.0]), support=(), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        est = constant_power_newton(SCALAR_Z2, meas, SolverConfig(), initial)
        assert abs(est.injections[0]) < 1e-4

    def test_requires_power_constraints(self):
        initial = SparseEstimate(
            injections=np.array([0.0]), support=(), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        with pytest.raises(ValidationError):
            constant_power_newton(SCALAR_Z2, MeasurementSet(), SolverConfig(), initial)


class TestMeasurementSet:
    def test_round_trip(self):
        meas = MeasurementSet(
            voltage_readings={1: 1.05, 3: 0.97},
            known_injections={2: -0.4},
            power_constraints={4: 1.2},
            voltage_source_buses=frozenset({1}),
        )
        back = MeasurementSet.from_text(meas.to_text())
        assert back == meas

    def test_missing_header(self):
        with pytest.raises(CaseParseError):
            MeasurementSet.from_text("[voltages]\n1 1.0\n")

    def test_unknown_section(self):
        with pytest.raises(CaseParseError):
            MeasurementSet.from_text("gridsense-snapshot v1\n[bogus]\n1 1.0\n")

    def test_malformed_line(self):
        with pytest.raises(CaseParseError):
            MeasurementSet.from_text("gridsense-snapshot v1\n[voltages]\n1 x\n")

    def test_power_and_known_overlap_error(self):
        with pytest.raises(ValidationError):
            MeasurementSet(known_injections={2: 1.0}, power_constraints={2: 1.0})


def _reference_estimate_state(model, meas, cfg):
    """estimate_state without power constraints, its matrix code written out.

    The test-only oracle for the snapshot pipeline: rows are the metered
    buses in ascending order, then the regulated sources; the known
    injections' Z block is subtracted from the readings; BPDN runs on the
    unknown columns and its answer is scattered back into the full vector.
    """
    m = model.size
    sources = sorted(meas.voltage_source_buses)
    row_buses = sorted(set(meas.voltage_readings) - set(sources)) + sources
    y = np.array([meas.voltage_readings[b] for b in row_buses])
    known = sorted(meas.known_injections)
    z_block = model.impedance[np.array(row_buses) - 1][:, np.array(known) - 1]
    y_off = y - z_block @ np.array([meas.known_injections[b] for b in known])
    unknown = np.array([b for b in range(1, m + 1) if b not in meas.known_injections])
    a = model.impedance[np.array(row_buses) - 1][:, unknown - 1]
    est = solve_bpdn(a, y_off, cfg)
    full = np.zeros(m)
    for b, val in meas.known_injections.items():
        full[b - 1] = val
    full[unknown - 1] = est.injections
    z_sel = model.impedance[np.array(row_buses) - 1]
    return SparseEstimate(
        injections=full,
        support=recon._support_of(full),
        residual_norm=float(np.linalg.norm(y - z_sel @ full)),
        iterations_used=est.iterations_used,
        converged=est.converged,
        route=est.route,
    )


class TestEstimateState:
    def test_degenerate_pipeline_equals_bpdn(self, ieee9_model):
        from gridsense import greedy_place_sensors

        plan = greedy_place_sensors(ieee9_model, 7)
        i_true = np.zeros(9)
        i_true[4] = 1.0
        rows = ieee9_model.impedance[np.array(plan.chosen) - 1]
        y = rows @ i_true
        meas = MeasurementSet(voltage_readings=dict(zip(plan.chosen, y)))
        cfg = SolverConfig(epsilon=0.0)
        est = estimate_state(ieee9_model, meas, plan, cfg)
        direct = solve_bpdn(rows, y, cfg)
        assert np.allclose(est.injections, direct.injections, atol=1e-10)

    def test_route_passed_on(self, ieee9_model):
        plan = plan_for([1, 2, 3, 4, 5, 6, 7])
        i_true = np.zeros(9)
        i_true[4] = 1.0
        y = ieee9_model.impedance[np.array(plan.chosen) - 1] @ i_true
        meas = MeasurementSet(voltage_readings=dict(zip(plan.chosen, y)))
        for eps, route in ((0.0, "lp"), (1e-3, "homotopy"), (10.0, "zero")):
            est = estimate_state(ieee9_model, meas, plan, SolverConfig(epsilon=eps))
            assert est.route == route

    def test_all_injections_known(self):
        i_true = np.array([0.5, -0.25])
        y = TWO_BUS_Z.impedance @ i_true
        plan = plan_for([1, 2])
        meas = MeasurementSet(
            voltage_readings={1: y[0], 2: y[1]},
            known_injections={1: 0.5, 2: -0.25},
        )
        est = estimate_state(TWO_BUS_Z, meas, plan, SolverConfig())
        assert np.allclose(est.injections, i_true)
        assert est.residual_norm < 1e-12
        assert est.route == ""

    def test_meter_set_mismatch_error(self):
        plan = plan_for([1, 2])
        meas = MeasurementSet(voltage_readings={1: 1.0})
        with pytest.raises(ValidationError):
            estimate_state(TWO_BUS_Z, meas, plan, SolverConfig())

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_regulated_sources_and_known_injections(self, ieee9_model, eps):
        # unsorted plan, two regulated sources (one also metered), two known
        # injections (one at a metered bus)
        plan = plan_for([8, 3, 6, 4, 9, 1])
        sources = frozenset({3, 7})
        known = {2: 0.6, 6: -0.4}
        cfg = SolverConfig(epsilon=eps)
        rng = np.random.default_rng(5)
        for _ in range(6):
            i_true = np.zeros(9)
            support = rng.choice([1, 3, 4, 5, 7, 8], size=2, replace=False)
            i_true[support - 1] = rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
            for b, val in known.items():
                i_true[b - 1] = val
            buses = sorted(set(plan.chosen) | sources)
            y = ieee9_model.impedance[np.array(buses) - 1] @ i_true
            meas = MeasurementSet(
                voltage_readings=dict(zip(buses, y)),
                known_injections=known,
                voltage_source_buses=sources,
            )
            got = estimate_state(ieee9_model, meas, plan, cfg)
            want = _reference_estimate_state(ieee9_model, meas, cfg)
            assert got.injections.tobytes() == want.injections.tobytes()
            assert got.residual_norm.hex() == want.residual_norm.hex()
            assert (got.support, got.iterations_used, got.converged, got.route) == (
                want.support, want.iterations_used, want.converged, want.route
            )

    def test_regulated_source_without_reading(self, ieee9_model):
        plan = plan_for([1, 2, 4])
        meas = MeasurementSet(
            voltage_readings={1: 0.1, 2: 0.2, 4: 0.3}, voltage_source_buses=frozenset({5}),
        )
        with pytest.raises(ValidationError, match="voltage readings must cover exactly"):
            estimate_state(ieee9_model, meas, plan, SolverConfig())
        meas = MeasurementSet(
            voltage_readings={1: 0.1}, power_constraints={2: 0.5},
            voltage_source_buses=frozenset({5}),
        )
        initial = SparseEstimate(
            injections=np.zeros(9), support=(), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        with pytest.raises(ValidationError, match="no voltage value for regulated source buses"):
            constant_power_newton(ieee9_model, meas, SolverConfig(), initial)

    def test_power_constraint_refinement(self):
        # scalar model: voltage row plus a constant-power device at the same bus
        i_true = 2.0
        v_true = 2.0 * i_true
        plan = plan_for([1])
        meas = MeasurementSet(
            voltage_readings={1: v_true},
            power_constraints={1: v_true * i_true},
        )
        est = estimate_state(SCALAR_Z2, meas, plan, SolverConfig())
        assert est.injections[0] == pytest.approx(2.0, abs=1e-7)
        assert est.converged
