"""Sparse reconstruction: offsets, min-energy, l0 oracle, BPDN, Newton, pipeline."""

from __future__ import annotations

import dataclasses
import importlib.machinery
import itertools
import os
import re
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse
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
    random_place_sensors,
    run_trial,
    sample_sparse_state,
    solve_bpdn,
)
import gridsense
from gridsense import recon
from gridsense.recon import SparseEstimate

from conftest import (
    IEEE9_DIVERGING_POWER,
    ieee9_power_snapshot,
    random_connected_network,
    solve_l0_oracle,
)
from gridsense import build_impedance_model
from gridsense.harness import INJECTION_RANGE

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
            pytest.param({"epsilon": float("nan")}, id="nan"),
            # an infinite radius once returned the all-zero estimate as converged
            pytest.param({"epsilon": float("inf")}, id="inf"),
        ],
    )
    def test_invalid_fields(self, kwargs):
        with pytest.raises(ValidationError, match="epsilon must be >= 0 and finite"):
            SolverConfig(**kwargs)

    def test_largest_finite_epsilon(self):
        assert SolverConfig(epsilon=sys.float_info.max).epsilon == sys.float_info.max

    def test_epsilon_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["epsilon"]

    @pytest.mark.parametrize(
        "name, value",
        [("convergence_tol", 1e-7), ("newton_max_iter", 50), ("newton_tol", 1e-10)],
    )
    def test_constants_not_settable(self, name, value):
        assert getattr(SolverConfig, name) == value
        assert getattr(SolverConfig(epsilon=0.5), name) == value
        with pytest.raises(TypeError):
            SolverConfig(**{name: value})


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


class TestSupportOf:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 12))
    def test_matches_the_loop(self, seed, m):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m) * 10.0 ** rng.integers(-9, 2, m)
        x[rng.random(m) < 0.3] = 0.0
        peak = np.abs(x).max() if x.size else 0.0
        want = () if peak == 0.0 else tuple(
            int(i) + 1 for i in np.flatnonzero(np.abs(x) > recon.SUPPORT_THRESHOLD_REL * peak)
        )
        got = recon._support_of(x)
        assert got == want
        assert all(type(b) is int for b in got)


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

    def test_non_finite_readings_error(self):
        with pytest.raises(ValidationError, match="non-finite entries in solver input"):
            solve_bpdn(np.eye(2), [np.nan, 1.0], SolverConfig())

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

    def test_route_threshold(self):
        # ftol = convergence_tol * max(1, ||y||): at or below it epsilon counts
        # as zero and the LP solves basis pursuit; above it the homotopy runs
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        y = np.array([2.0, 2.0])
        ftol = SolverConfig.convergence_tol * np.linalg.norm(y)
        at = solve_bpdn(a, y, SolverConfig(epsilon=ftol))
        above = solve_bpdn(a, y, SolverConfig(epsilon=np.nextafter(ftol, np.inf)))
        assert (at.route, at.converged) == ("lp", True)
        assert (above.route, above.converged) == ("homotopy", True)

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


class TestBpdnInputShapes:
    """A that is not 2-D, and y whose shape is not (rows of A,), raise before any solve."""

    A = np.array([[1.0, 0.0, 1.0, 0.5], [0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 2.0]])

    @pytest.fixture
    def no_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("solver reached")

        monkeypatch.setattr(recon, "_solve_bp_lp", fail)
        monkeypatch.setattr(recon, "_bpdn_homotopy", fail)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3)])
    def test_reading_vector_shape(self, no_solve, epsilon, shape):
        # (4,) is the column count, (1, 3) holds the right count in a row
        y = np.ones(shape)
        with pytest.raises(ValidationError, match=r"reading vector must have shape \(3,\)"):
            solve_bpdn(self.A, y, SolverConfig(epsilon=epsilon))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_matrix_not_2d(self, no_solve, shape):
        with pytest.raises(ValidationError, match="system matrix must be 2-D"):
            solve_bpdn(np.ones(shape), np.ones(2), SolverConfig())


# every function that takes a reading vector, on the 9-bus model read at
# buses 1, 2 and 3 (min_energy on a 3 x 2 matrix): each gets (model, y)
READING_ENTRY_POINTS = {
    "solve_bpdn": lambda model, y: solve_bpdn(model.impedance[:3], y, SolverConfig()),
    "BpdnProblem.solve": lambda model, y: recon.BpdnProblem(model.impedance[:3]).solve(
        y, SolverConfig(epsilon=0.1)),
    "MeasurementSystem.bpdn": lambda model, y: recon.MeasurementSystem(
        model, (1, 2, 3), {4: 0.5}).bpdn(y, SolverConfig()),
    "MeasurementSystem.bpdn, every injection known": lambda model, y: recon.MeasurementSystem(
        model, (1, 2, 3), {b: 0.1 for b in range(1, 10)}).bpdn(y, SolverConfig()),
    "MeasurementSystem.min_energy": lambda model, y: recon.MeasurementSystem(
        model, (1, 2, 3), {4: 0.5}).min_energy(y),
    "min_energy": lambda model, y: min_energy(np.arange(6.0).reshape(3, 2), y),
    "apply_current_offsets": lambda model, y: apply_current_offsets(y, model, (1, 2, 3), {4: 0.5}),
}


class TestReadingCheck:
    """A reading vector whose shape is not (n,) for n readings, or that holds
    a non-finite entry, raises the same ValidationError wherever it enters."""

    @pytest.mark.parametrize("entry", READING_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "y, message",
        [
            (np.ones(2), "reading vector must have shape (3,), got (2,)"),
            (np.ones(4), "reading vector must have shape (3,), got (4,)"),
            (np.ones((1, 3)), "reading vector must have shape (3,), got (1, 3)"),
            (np.ones((3, 1)), "reading vector must have shape (3,), got (3, 1)"),
            ([0.1, np.nan, 0.2], "non-finite entries in solver input"),
            ([0.1, 0.2, np.inf], "non-finite entries in solver input"),
        ],
        ids=["short", "long", "row", "column", "nan", "inf"],
    )
    def test_one_error(self, ieee9_model, entry, y, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            READING_ENTRY_POINTS[entry](ieee9_model, y)

    @pytest.mark.parametrize("current", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", ["estimate_state", "MeasurementSystem", "apply_current_offsets"])
    def test_non_finite_known_current_with_unknowns(self, ieee9_model, build, current):
        known = {4: current, 6: 0.2}
        with pytest.raises(ValidationError, match="^non-finite entries in solver input$"):
            if build == "estimate_state":
                meas = MeasurementSet(voltage_readings={1: 0.3, 2: 0.1, 3: 0.2},
                                      known_injections=known)
                estimate_state(ieee9_model, meas, plan_for([1, 2, 3]), SolverConfig())
            elif build == "MeasurementSystem":
                recon.MeasurementSystem(ieee9_model, (1, 2, 3), known)
            else:
                apply_current_offsets([0.3, 0.1, 0.2], ieee9_model, (1, 2, 3), known)

    def test_nothing_known_offsets_by_a_zero_vector(self, ieee9_model):
        system = recon.MeasurementSystem(ieee9_model, (1, 2, 3), {})
        assert system.offset.shape == (3,)
        assert not system.offset.any()
        y = np.array([-0.0, 0.0, -1.5])
        for got in (y - system.offset, apply_current_offsets(y, ieee9_model, (1, 2, 3), {})):
            assert [v.hex() for v in got] == [v.hex() for v in y]


class TestBpdnFallback:
    """Inputs on which the LP or the homotopy gives up: the least-squares
    point comes back at once, not converged, with route "fallback"."""

    def test_near_duplicate_columns_least_squares(self):
        # two columns differ by 1e-9, and the homotopy gives up on them
        a = np.array([[1.0, 1.0 + 1e-9, 0.2], [0.3, 0.3, 1.0], [0.1, 0.1 + 1e-9, 0.5]])
        y = np.array([1.0, 0.5, 0.2])
        cfg = SolverConfig(epsilon=0.01)
        start = time.perf_counter()
        est = solve_bpdn(a, y, cfg)
        elapsed = time.perf_counter() - start
        assert est.route == "fallback"
        assert est.converged is False
        assert est.iterations_used == 0
        norms = np.linalg.norm(a, axis=0)
        assert np.array_equal(est.injections, np.linalg.lstsq(a / norms, y, rcond=None)[0] / norms)
        assert np.linalg.norm(y - a @ est.injections) <= cfg.epsilon + cfg.convergence_tol
        assert elapsed < 1.0

    def test_least_squares_above_epsilon_not_converged(self):
        est = solve_bpdn(np.array([[1.0], [0.0]]), [0.0, 1.0], SolverConfig(epsilon=0.1))
        assert not est.converged
        assert est.residual_norm == pytest.approx(1.0)

    def test_route_fallback(self):
        est = solve_bpdn(np.array([[1.0], [0.0]]), [0.0, 1.0], SolverConfig(epsilon=0.1))
        assert est.route == "fallback"

    @pytest.mark.parametrize(
        "a, y",
        [([[1.0], [0.0]], [0.0, 1.0]), ([[1.0, 1.0], [0.0, 0.0]], [1.0, 1e-3])],
    )
    def test_infeasible_lp_not_converged(self, a, y):
        # y outside range(A): the equality LP has no solution, and the
        # least-squares point comes back at once.
        # A's columns have unit norm, so no rescaling hides in the comparison
        est = solve_bpdn(np.array(a), y, SolverConfig(epsilon=0.0))
        assert est.route == "fallback"
        assert est.converged is False
        assert est.iterations_used == 0
        assert np.array_equal(est.injections, np.linalg.lstsq(np.array(a), y, rcond=None)[0])

    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 1.5, 1e6])
    def test_bisection_only_above_ftol(self, scale):
        # ||y|| = 1, so ftol = convergence_tol; no point fits y within ftol
        # or within epsilon. The LP (scale <= 1) and the homotopy, which
        # gives up at once (A^T y = 0), leave through the same exit
        ftol = SolverConfig.convergence_tol
        est = solve_bpdn(np.array([[1.0], [0.0]]), [0.0, 1.0], SolverConfig(epsilon=scale * ftol))
        assert est.route == "fallback"
        assert est.converged is False
        assert est.iterations_used == 0
        assert np.array_equal(est.injections, [0.0])


def _reference_bp_lp(an, y, ftol):
    """The l1 minimum of the eps=0 LP, through scipy's linprog(method="highs")
    on the primal [A, -A]: oracle for _solve_bp_lp. None when linprog finds
    no point or its point misses ftol."""
    m = an.shape[1]
    res = linprog(
        np.ones(2 * m), A_eq=np.hstack([an, -an]), b_eq=y, bounds=(0, None), method="highs",
        options={"presolve": False, "primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9},
    )
    if not res.success or np.linalg.norm(y - an @ (res.x[:m] - res.x[m:])) > ftol:
        return None
    return float(res.fun)


@pytest.fixture
def lp_calls(monkeypatch):
    """Each _solve_bp_lp call as ((an, y, ftol), answer, dual point), in call order.

    The dual point is the LP's columns, read from the same thread's solver
    right after the solve.
    """
    calls = []
    inner = recon._solve_bp_lp

    def spy(an, y, ftol, *rest):
        out = inner(an, y, ftol, *rest)
        lam = np.array(recon._highs_solver()[1].getSolution().col_value)
        calls.append(((an, y, ftol), out, lam))
        return out

    monkeypatch.setattr(recon, "_solve_bp_lp", spy)
    return calls


class TestBpLpOracle:
    """The dual LP's x is optimal for linprog's primal: the same l1 norm, within ftol of y."""

    @staticmethod
    def assert_matches_linprog(calls):
        for (an, y, ftol), got, _ in calls:
            want = _reference_bp_lp(an, y, ftol)
            assert (got is None) == (want is None)
            if want is not None:
                l1 = float(np.abs(got[0]).sum())
                assert abs(l1 - want) <= 1e-9 * max(1.0, l1)
                assert got[1] == np.linalg.norm(y - an @ got[0]) <= ftol

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
        assert all(out is not None for _, out, _ in lp_calls)
        self.assert_matches_linprog(lp_calls)

    def test_ieee118_greedy_plan(self, lp_calls, ieee118_network, ieee118_model):
        plan = greedy_place_sensors(ieee118_model, 60)
        spec = ScenarioSpec(ieee118_network, ieee118_model, plan, 2, seed=118)
        for t in range(24):
            run_trial(spec, "cs", t)
        assert len(lp_calls) == 24
        assert all(out is not None for _, out, _ in lp_calls)
        self.assert_matches_linprog(lp_calls)

    def test_infeasible_then_feasible_on_one_solver(self, lp_calls):
        # passModel resets the thread's solver: an infeasible model leaves
        # nothing behind for the next one
        solver = recon._highs_solver()[1]
        cfg = SolverConfig(epsilon=0.0)
        solve_bpdn(np.array([[1.0], [0.0]]), [0.0, 1.0], cfg)
        solve_bpdn(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), [2.0, 2.0], cfg)
        assert recon._highs_solver()[1] is solver
        assert [out is None for _, out, _ in lp_calls] == [True, False]
        self.assert_matches_linprog(lp_calls)

    def test_interleaved_random_models(self, lp_calls):
        # one problem set up per matrix, one in three right-hand sides infeasible
        rng = np.random.default_rng(5)
        cfg = SolverConfig(epsilon=0.0)
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
        assert sum(out is None for _, out, _ in lp_calls) == 12
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


def _sparse_rhs(a, count, seed, sparsity=2):
    rng = np.random.default_rng(seed)
    ys = []
    for _ in range(count):
        x = np.zeros(a.shape[1])
        picked = rng.choice(a.shape[1], sparsity, replace=False)
        x[picked] = rng.uniform(0.2, 1.5, sparsity) * rng.choice([-1.0, 1.0], sparsity)
        ys.append(a @ x)
    return ys


class TestBpLpKeptModel:
    """The thread's solver keeps the last problem's model and changes only
    the row bounds; every answer equals a freshly passed model's and linprog's."""

    @staticmethod
    def assert_fresh_answers(calls):
        for (an, y, ftol), got, _ in calls:
            # new arrays: the thread's solver is passed a new model
            want = recon._solve_bp_lp(an, y, ftol, recon._bp_lp_arrays(an))
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got[0], want[0])
                assert got[1:] == want[1:]

    def test_one_problem_passes_its_model_once(self, lp_calls, counted_solver, ieee118_model):
        plan = greedy_place_sensors(ieee118_model, 60)
        a = ieee118_model.impedance[np.array(sorted(plan.chosen)) - 1]
        problem = recon.BpdnProblem(a)
        for y in _sparse_rhs(a, 50, seed=14):
            assert problem.solve(y, SolverConfig(epsilon=0.0)).route == "lp"
        assert counted_solver.passes == 1
        stream = list(lp_calls)
        self.assert_fresh_answers(stream)
        TestBpLpOracle.assert_matches_linprog(stream)

    def test_two_problem_stream(self, lp_calls, counted_solver, ieee118_model):
        # 200 solves on one thread, two 118-bus plans taking turns in runs of
        # 1-6 solves. With HiGHS's scaling on, a kept model's answer depended
        # on the y solved before it and missed the fresh model's on this stream
        plans = (
            greedy_place_sensors(ieee118_model, 60).chosen,
            random_place_sensors(ieee118_model, 60, seed=4).chosen,
        )
        rows = [ieee118_model.impedance[np.array(sorted(p)) - 1] for p in plans]
        problems = [recon.BpdnProblem(a) for a in rows]
        pending = [iter(_sparse_rhs(a, 200, seed=30 + k)) for k, a in enumerate(rows)]
        rng = np.random.default_rng(31)
        turn, runs, solved = 0, 0, 0
        while solved < 200:
            length = min(int(rng.integers(1, 7)), 200 - solved)
            for _ in range(length):
                est = problems[turn].solve(next(pending[turn]), SolverConfig(epsilon=0.0))
                assert est.route == "lp"
            turn, runs, solved = 1 - turn, runs + 1, solved + length
        assert counted_solver.passes == runs
        assert len(lp_calls) == 200
        self.assert_fresh_answers(list(lp_calls))

    def test_interleaved_problems(self, lp_calls, counted_solver):
        rng = np.random.default_rng(21)
        first, second = (recon.BpdnProblem(rng.standard_normal((5, 10))) for _ in range(2))
        cfg = SolverConfig(epsilon=0.0)
        for k, problem in enumerate((first, first, second, first)):
            problem.solve(_sparse_rhs(problem.an, 1, seed=k)[0], cfg)
        assert counted_solver.passes == 3
        assert all(out is not None for _, out, _ in lp_calls)
        TestBpLpOracle.assert_matches_linprog(lp_calls)

    def test_infeasible_rhs_mid_stream(self, lp_calls, counted_solver):
        # the all-zero last row cannot meet y[3] = 1: that solve falls back,
        # and the next one passes the model again
        rng = np.random.default_rng(22)
        a = rng.standard_normal((4, 8))
        a[3] = 0.0
        ys = _sparse_rhs(a, 3, seed=23)
        ys[1][3] = 1.0
        problem = recon.BpdnProblem(a)
        routes = [problem.solve(y, SolverConfig(epsilon=0.0)).route for y in ys]
        assert routes == ["lp", "fallback", "lp"]
        assert counted_solver.passes == 2
        stream = list(lp_calls)
        self.assert_fresh_answers(stream)
        TestBpLpOracle.assert_matches_linprog(stream)

    def test_run_error_passes_the_model_again(self, monkeypatch, lp_calls, counted_solver):
        errors = []
        inner_run = counted_solver.inner.run
        monkeypatch.setattr(
            counted_solver, "run", lambda: errors.pop() if errors else inner_run(), raising=False
        )
        a = np.random.default_rng(24).standard_normal((5, 10))
        problem = recon.BpdnProblem(a)
        cfg = SolverConfig(epsilon=0.0)
        ys = _sparse_rhs(a, 3, seed=25)
        assert problem.solve(ys[0], cfg).route == "lp"
        errors.append(recon._highs_solver()[0].HighsStatus.kError)
        assert problem.solve(ys[1], cfg).route == "fallback"
        assert errors == []
        assert problem.solve(ys[2], cfg).route == "lp"
        assert counted_solver.passes == 2
        after = lp_calls[2:]
        self.assert_fresh_answers(after)
        TestBpLpOracle.assert_matches_linprog(after)

    def test_non_finite_duals_pass_the_model_again(self, monkeypatch, counted_solver):
        # row duals HiGHS returns as infinite are no answer: that solve falls
        # back, and the next one passes the model again
        a = np.random.default_rng(24).standard_normal((5, 10))
        problem = recon.BpdnProblem(a)
        cfg = SolverConfig(epsilon=0.0)
        ys = _sparse_rhs(a, 3, seed=25)
        assert problem.solve(ys[0], cfg).route == "lp"
        infinite = types.SimpleNamespace(row_dual=np.full(10, np.inf))
        monkeypatch.setattr(counted_solver, "getSolution", lambda: infinite, raising=False)
        assert problem.solve(ys[1], cfg).route == "fallback"
        monkeypatch.delattr(counted_solver, "getSolution")
        assert problem.solve(ys[2], cfg).route == "lp"
        assert counted_solver.passes == 2

    def test_iterations_are_the_simplex_count(self, ieee118_model):
        a = ieee118_model.impedance[:60]
        problem = recon.BpdnProblem(a)
        counts = []
        for y in _sparse_rhs(a, 5, seed=26):
            est = problem.solve(y, SolverConfig(epsilon=0.0))
            info = recon._highs_solver()[1].getInfo()
            assert est.iterations_used == info.simplex_iteration_count
            counts.append(est.iterations_used)
        assert min(counts) > 0

    def test_info_error_passes_the_model_again(self, monkeypatch, lp_calls, counted_solver):
        # an iteration count HiGHS does not report as valid fails the solve,
        # as a run error does
        core = recon._highs_solver()[0]
        warnings = []
        inner_info = counted_solver.inner.getInfoValue
        monkeypatch.setattr(
            counted_solver, "getInfoValue",
            lambda name: (warnings.pop(), 0) if warnings else inner_info(name), raising=False,
        )
        a = np.random.default_rng(27).standard_normal((5, 10))
        problem = recon.BpdnProblem(a)
        cfg = SolverConfig(epsilon=0.0)
        ys = _sparse_rhs(a, 3, seed=28)
        assert problem.solve(ys[0], cfg).route == "lp"
        warnings.append(core.HighsStatus.kWarning)
        assert problem.solve(ys[1], cfg).route == "fallback"
        assert warnings == []
        assert problem.solve(ys[2], cfg).route == "lp"
        assert counted_solver.passes == 2
        self.assert_fresh_answers(lp_calls[2:])


class TestBpLpArrays:
    """The LP's arrays: their layout, when they are built, and sharing them."""

    @staticmethod
    def assert_layout(problem):
        # n free columns (one per reading), m rows in [-1, 1] (one per bus),
        # A^T column-wise without exact zeros
        cols, col_lower, col_upper, row_lower, row_upper, start, index, value, integrality = (
            problem._lp_arrays
        )
        want = scipy.sparse.csc_array(problem.an.T)
        n, m = problem.an.shape
        assert cols.dtype == start.dtype == index.dtype == integrality.dtype == np.int32
        assert np.array_equal(cols, np.arange(n))
        assert np.array_equal(start, want.indptr)
        assert np.array_equal(index, want.indices)
        assert np.array_equal(value, want.data)
        assert not (value == 0).any()
        assert np.array_equal(col_lower, np.full(n, -np.inf))
        assert np.array_equal(col_upper, np.full(n, np.inf))
        assert np.array_equal(row_lower, np.full(m, -1.0))
        assert np.array_equal(row_upper, np.ones(m))
        assert np.array_equal(integrality, np.zeros(n))

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
    def test_layout_hand_matrices(self, a, y):
        problem = recon.BpdnProblem(np.array(a))
        problem.solve(y, SolverConfig(epsilon=0.0))
        self.assert_layout(problem)

    def test_layout_ieee118_greedy_plan(self, ieee118_model):
        plan = greedy_place_sensors(ieee118_model, 60)
        a = ieee118_model.impedance[np.array(sorted(plan.chosen)) - 1]
        problem = recon.BpdnProblem(a)
        x = np.zeros(118)
        x[[70, 95]] = [1.25, -0.8]
        assert problem.solve(a @ x, SolverConfig(epsilon=0.0)).route == "lp"
        self.assert_layout(problem)

    def test_built_once_and_only_for_basis_pursuit(self, monkeypatch):
        built = []
        inner = recon._bp_lp_arrays
        monkeypatch.setattr(recon, "_bp_lp_arrays", lambda an: built.append(an) or inner(an))
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 10))
        ys = []
        for _ in range(20):
            x = np.zeros(10)
            x[rng.choice(10, 2, replace=False)] = rng.standard_normal(2)
            ys.append(a @ x)
        noisy = recon.BpdnProblem(a)
        for y in ys:
            est = noisy.solve(y, SolverConfig(epsilon=0.1 * np.linalg.norm(y)))
            assert est.route in ("homotopy", "fallback")
        assert built == []
        problem = recon.BpdnProblem(a)
        assert {problem.solve(y, SolverConfig(epsilon=0.0)).route for y in ys} == {"lp"}
        assert len(built) == 1

    def test_threads_share_one_problem(self):
        # no solve writes to the problem, so threads switching often on one
        # shared problem get the serial answers
        rng = np.random.default_rng(9)
        cfg = SolverConfig(epsilon=0.0)
        a = rng.standard_normal((5, 10))
        work = [
            [a @ (rng.standard_normal(10) * (rng.random(10) < 0.3)) for _ in range(25)]
            for _ in range(4)
        ]
        serial = [[solve_bpdn(a, y, cfg) for y in ys] for ys in work]
        problem = recon.BpdnProblem(a)
        results = {}

        def run(i):
            results[i] = [problem.solve(y, cfg) for y in work[i]]

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
            for got, est in zip(results[i], want, strict=True):
                assert np.array_equal(got.injections, est.injections)
                assert (got.iterations_used, got.route) == (est.iterations_used, est.route)


class TestBpLpDualCertificate:
    """Every LP answer is optimal: its dual point lam is feasible,
    ||an^T lam||_inf <= 1, closes the gap, y.lam = ||x||_1, and is
    complementary, an_j.lam = sign(x_j) wherever x_j != 0. Independent of linprog."""

    @staticmethod
    def assert_certified(calls):
        assert calls
        for (an, y, _), out, lam in calls:
            assert out is not None
            x = out[0]
            l1 = float(np.abs(x).sum())
            corr = an.T @ lam
            assert np.abs(corr).max() <= 1 + 1e-9
            assert abs(l1 - float(y @ lam)) <= 1e-9 * l1
            nz = x != 0
            assert np.abs(corr[nz] - np.sign(x[nz])).max() <= 1e-9

    @staticmethod
    def run_plans(network, model, plan, trials):
        for sparsity in (1, 2, 3):
            spec = ScenarioSpec(network, model, plan, sparsity, seed=len(plan.chosen) + sparsity)
            for t in range(trials):
                run_trial(spec, "cs", t)

    @pytest.mark.parametrize("meters", range(3, 10))
    def test_ieee9_plans(self, lp_calls, ieee9_network, ieee9_model, meters):
        plans = [greedy_place_sensors(ieee9_model, meters)]
        plans += [random_place_sensors(ieee9_model, meters, seed=s) for s in (1, 2, 3)]
        for plan in plans:
            self.run_plans(ieee9_network, ieee9_model, plan, 8)
        assert len(lp_calls) == 96
        self.assert_certified(lp_calls)

    @pytest.mark.parametrize("meters", [20, 60, 90])
    def test_ieee118_plans(self, lp_calls, ieee118_network, ieee118_model, meters):
        plans = [greedy_place_sensors(ieee118_model, meters)]
        plans += [random_place_sensors(ieee118_model, meters, seed=s) for s in (1, 2)]
        for plan in plans:
            self.run_plans(ieee118_network, ieee118_model, plan, 12)
        assert len(lp_calls) == 108
        self.assert_certified(lp_calls)


class TestBpLpNoFallback:
    """Two 118-bus random plans whose LP answers once missed ftol, so the
    solves fell back and did not converge."""

    @pytest.mark.parametrize(
        "buses, sparsity, seed, trial",
        [
            # random_place_sensors(model, 20, seed=2000)
            ([3, 8, 19, 20, 21, 24, 30, 47, 49, 50, 52, 54, 58, 60, 63, 67, 70, 102, 108, 116],
             3, 143, 2),
            # random_place_sensors(model, 20, seed=2002)
            ([13, 15, 17, 20, 27, 34, 37, 42, 58, 66, 69, 70, 75, 84, 89, 96, 98, 104, 110, 116],
             5, 145, 3),
        ],
    )
    def test_lp_route(self, ieee118_network, ieee118_model, buses, sparsity, seed, trial):
        spec = ScenarioSpec(ieee118_network, ieee118_model, plan_for(buses), sparsity, seed=seed)
        result = run_trial(spec, "cs", trial)
        assert result.route == "lp"
        assert result.converged is True


class TestHomotopyCertificate:
    @pytest.fixture
    def trial_29(self, ieee118_network, ieee118_model):
        """(A, y) of trial 29 on the 118-bus buses 1...60 plan, S=2, seed 1."""
        plan = greedy_place_sensors(ieee118_model, 60)
        spec = ScenarioSpec(ieee118_network, ieee118_model, plan, 2, seed=1)
        a = ieee118_model.impedance[np.array(sorted(plan.chosen)) - 1]
        return a, a @ sample_sparse_state(118, spec, 29)

    def test_tiny_epsilon_ieee118(self, trial_29):
        # at eps = 1e-9 ||y|| the crossing weight is ~1e-10, below the
        # absolute 1e-9 slack the certificate once had; it then accepted this
        # trial's point at 17x the LP's l1 norm
        a, y = trial_29
        an = a / np.linalg.norm(a, axis=0)
        hom = recon._bpdn_homotopy(an, y, 1e-9 * np.linalg.norm(y), 8 * sum(an.shape) + 32)
        if hom is not None:
            lp = linprog(np.ones(236), A_eq=np.hstack([an, -an]), b_eq=y,
                         bounds=(0, None), method="highs")
            assert np.abs(hom[0]).sum() == pytest.approx(lp.fun, rel=1e-6)

    def test_tiny_epsilon_is_basis_pursuit(self, trial_29):
        # 1e-9 ||y|| is below ftol = 1e-7 max(1, ||y||): the LP solves it
        a, y = trial_29
        est = solve_bpdn(a, y, SolverConfig(epsilon=1e-9 * np.linalg.norm(y)))
        assert (est.route, est.converged) == ("lp", True)


def _reference_homotopy(an, y, eps, max_steps):
    """The homotopy before tied events were handled: oracle for _bpdn_homotopy.

    Two lstsq solves per step (phi on the active columns, psi on their
    Gram). An add that ties the event before it and then moves against its
    sign is not taken back, so the walk gives up in the certificate's sign
    check. Returns (beta, residual, steps) or None.
    """
    n, m = an.shape
    c0 = an.T @ y
    lam = float(np.abs(c0).max())
    if lam <= 0:
        return None
    active: list[int] = [int(np.argmax(np.abs(c0)))]
    signs = np.array([np.sign(c0[active[0]])])
    tiny = 1e-13 * max(1.0, lam)
    # the index involved in the most recent event has a candidate event
    # sitting exactly at the segment's starting lam; only that spurious
    # re-fire is suppressed, a genuine later event for it stays allowed
    barred = active[0]

    for step in range(1, max_steps + 1):
        sub = an[:, active]
        gram = sub.T @ sub
        # truncated least squares: coherent columns drive the active-set
        # systems towards singularity, and plain solves derail the path
        phi, *_ = np.linalg.lstsq(sub, y, rcond=1e-11)
        psi, *_ = np.linalg.lstsq(gram, signs.astype(float), rcond=1e-11)
        # on this segment beta(l) = phi - l*psi, residual r(l) = u + l*v
        u = y - sub @ phi
        v = sub @ psi

        # next active-set event: an inactive correlation reaching the bound
        # or an active coefficient hitting zero; events may coincide with the
        # current lam when columns are highly coherent, so allow cand == lam
        lam_next = 0.0
        event = None  # (kind, index, sign)
        inactive = [j for j in range(m) if j not in active]
        if inactive:
            cu = an[:, inactive].T @ u
            cv = an[:, inactive].T @ v
            for k, j in enumerate(inactive):
                for sgn in (1.0, -1.0):
                    denom = sgn - cv[k]
                    if abs(denom) < tiny:
                        continue
                    cand = cu[k] / denom
                    if j == barred and cand > lam * (1.0 - 1e-9) - tiny:
                        continue
                    if tiny < cand <= lam + tiny and cand > lam_next:
                        lam_next = min(cand, lam)
                        event = ("add", j, sgn)
        for pos, j in enumerate(active):
            if abs(psi[pos]) < tiny:
                continue
            cand = phi[pos] / psi[pos]
            if j == barred and cand > lam * (1.0 - 1e-9) - tiny:
                continue
            if tiny < cand <= lam + tiny and cand > lam_next:
                lam_next = min(cand, lam)
                event = ("drop", j, 0.0)

        # residual-norm crossing ||u + l v|| = eps; the segment formulas are
        # only valid down to the next event, so restrict roots to [lam_next, lam]
        a2 = float(v @ v)
        a1 = 2.0 * float(u @ v)
        a0 = float(u @ u) - eps * eps
        cross = None
        if a2 > 0:
            disc = a1 * a1 - 4.0 * a2 * a0
            if disc >= 0:
                roots = [(-a1 + np.sqrt(disc)) / (2 * a2), (-a1 - np.sqrt(disc)) / (2 * a2)]
                valid = [r for r in roots if lam_next - tiny <= r <= lam + tiny]
                if valid:
                    cross = max(valid)
        elif a0 <= 0:
            cross = lam
        if cross is not None:
            cross = min(max(cross, lam_next), lam)
            beta = np.zeros(m)
            beta[active] = phi - cross * psi
            # optimality certificate: no correlation may exceed the dual
            # weight, and every nonzero coefficient's correlation must sit
            # at the weight with matching sign. The slack is relative to the
            # weight only: at a tiny eps the weight itself is tiny, and any
            # absolute term would pass points that are merely feasible
            corr = an.T @ (y - an @ beta)
            slack = cross * 1e-6
            if np.abs(corr).max() > cross + slack:
                return None
            nz = np.flatnonzero(beta)
            if nz.size and np.abs(corr[nz] - cross * np.sign(beta[nz])).max() > slack:
                return None
            residual = float(np.linalg.norm(y - an @ beta))
            return beta, residual, step

        if event is None:
            # no event and no crossing above: residual floor sits above eps
            return None
        barred = event[1]
        lam = lam_next
        if event[0] == "add":
            active.append(event[1])
            signs = np.append(signs, event[2])
        else:
            pos = active.index(event[1])
            active.pop(pos)
            signs = np.delete(signs, pos)
            if not active:
                return None
    return None


def _assert_lasso_kkt(an, y, eps, beta, residual):
    """beta is a lasso point on the residual sphere ||y - an beta|| = eps.

    The weight is the largest correlation; every nonzero coefficient's
    correlation must sit at it with the coefficient's sign, within the
    homotopy certificate's 1e-6 relative slack.
    """
    r = y - an @ beta
    assert residual == pytest.approx(np.linalg.norm(r), rel=1e-12)
    assert abs(residual - eps) <= 1e-9 * np.linalg.norm(y)
    corr = an.T @ r
    weight = np.abs(corr).max()
    nz = np.flatnonzero(beta)
    assert nz.size
    assert np.abs(corr[nz] - weight * np.sign(beta[nz])).max() <= 1e-6 * weight


@pytest.fixture
def homotopy_calls(monkeypatch):
    """(args, answer) of every _bpdn_homotopy call; no answer may be None,
    which would send the solve to the least-squares exit."""
    calls = []
    inner = recon._bpdn_homotopy

    def spy(an, y, eps, max_steps):
        calls.append(((an, y, eps, max_steps), inner(an, y, eps, max_steps)))
        return calls[-1][1]

    monkeypatch.setattr(recon, "_bpdn_homotopy", spy)
    yield calls
    assert all(out is not None for _, out in calls), "the homotopy gave up"


class TestHomotopyTies:
    """Lasso paths with tied events: an add at the weight of the event before
    it, whose coefficient then moves against its sign. The reference walk
    gives up on each."""

    # trials of run_benchmark's random k=7 cell at S=2, sigma=0.01 on the
    # 9-bus model with seed=2 (cell seed 3861980557)
    @pytest.mark.parametrize(
        "buses, trial",
        [((1, 3, 4, 5, 7, 8, 9), 13), ((1, 2, 4, 5, 7, 8, 9), 26), ((1, 2, 4, 5, 7, 8, 9), 48)],
    )
    def test_ieee9_trial(self, homotopy_calls, ieee9_network, ieee9_model, buses, trial):
        spec = ScenarioSpec(
            ieee9_network, ieee9_model, plan_for(buses), 2, noise_std=0.01, seed=3861980557,
        )
        result = run_trial(spec, "cs", trial)
        assert (result.route, result.converged) == ("homotopy", True)
        [(args, out)] = homotopy_calls
        assert _reference_homotopy(*args) is None
        _assert_lasso_kkt(*args[:3], *out[:2])

    def test_ieee118_noisy_setting(self, homotopy_calls, ieee118_network, ieee118_model):
        # the ieee118-noisy bench setting; the reference walk gives up on 14 of these 40
        spec = ScenarioSpec(
            ieee118_network, ieee118_model, greedy_place_sensors(ieee118_model, 90), 5,
            noise_std=0.01, seed=3,
        )
        results = [run_trial(spec, "cs", t) for t in range(40)]
        assert {(r.route, r.converged) for r in results} == {("homotopy", True)}
        assert len(homotopy_calls) == 40

    @pytest.mark.parametrize("ratio", [1e-6, 1e-4, 1e-3])
    def test_ieee118_buses_1_to_60_trial_26(
        self, homotopy_calls, ieee118_network, ieee118_model, ratio
    ):
        # S=2, seed 1, noiseless. With psi truncated at 1e-11 on the Gram and
        # phi at 1e-11 on the columns, one singular value between them was
        # kept by phi only; the path jumped there, and the walk gave up in
        # the certificate's bound check at all three radii
        plan = greedy_place_sensors(ieee118_model, 60)
        spec = ScenarioSpec(ieee118_network, ieee118_model, plan, 2, seed=1)
        a = ieee118_model.impedance[np.array(sorted(plan.chosen)) - 1]
        y = a @ sample_sparse_state(118, spec, 26)
        est = solve_bpdn(a, y, SolverConfig(epsilon=ratio * np.linalg.norm(y)))
        assert (est.route, est.converged) == ("homotopy", True)
        [(args, out)] = homotopy_calls
        _assert_lasso_kkt(*args[:3], *out[:2])


class TestHomotopyStepBudget:
    def test_gives_up_when_the_steps_run_out(self):
        # this walk ends at its 4th step; a budget of fewer steps gives up
        a = np.random.default_rng(3).standard_normal((4, 6))
        an = a / np.linalg.norm(a, axis=0)
        y = an[:, 1] - 0.8 * an[:, 4]
        eps = 0.01 * np.linalg.norm(y)
        assert recon._bpdn_homotopy(an, y, eps, max_steps=4)[2] == 4
        assert recon._bpdn_homotopy(an, y, eps, max_steps=3) is None
        assert recon._bpdn_homotopy(an, y, eps, max_steps=1) is None


class TestHomotopyOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(7, 9), (6, 12)]),
        log_ratio=st.floats(-5.0, -0.05),
    )
    def test_matches_reference(self, seed, shape, log_ratio):
        # eps = 10**log_ratio ||y|| > ftol: the homotopy's range
        rng = np.random.default_rng(seed)
        n, m = shape
        a = rng.standard_normal((n, m))
        an = a / np.linalg.norm(a, axis=0)
        x = np.zeros(m)
        k = int(rng.integers(1, n))
        x[rng.choice(m, k, replace=False)] = rng.uniform(0.5, 1.5, k) * rng.choice([-1, 1], k)
        y = an @ x + 0.01 * rng.standard_normal(n)
        eps = 10.0**log_ratio * np.linalg.norm(y)
        steps = 8 * (n + m) + 32
        ref = _reference_homotopy(an, y, eps, steps)
        if ref is None:
            return
        out = recon._bpdn_homotopy(an, y, eps, steps)
        assert out is not None
        _assert_lasso_kkt(an, y, eps, out[0], out[1])
        l1_ref = np.abs(ref[0]).sum()
        assert abs(np.abs(out[0]).sum() - l1_ref) <= 1e-12 * l1_ref


def _fresh_interpreter(code):
    """Stdout of `code` run by a new interpreter that imports this gridsense."""
    src = os.path.dirname(os.path.dirname(gridsense.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        timeout=120,
    ).stdout


# a noiseless S=2 9-bus snapshot on the greedy 7-meter plan's rows (buses
# 1-5, 7, 9), which basis pursuit recovers; `solve()` makes one LP solve
_IEEE9_LP = """
import sys, threading
import numpy as np
from gridsense import SolverConfig, bundled_case_path, build_impedance_model, load_network
from gridsense import recon, solve_bpdn
CORE = "scipy.optimize._highspy._core"
Z = build_impedance_model(load_network(bundled_case_path("ieee9.case"))).impedance
A = Z[[0, 1, 2, 3, 4, 6, 8]]
X = np.zeros(9)
X[[1, 4]] = [1.2, -0.7]

def solve():
    est = solve_bpdn(A, A @ X, SolverConfig(epsilon=0.0))
    assert est.route == "lp" and np.abs(est.injections - X).max() <= 1e-9
    return est.injections.tobytes().hex()

def linprog_solves():
    from scipy.optimize import linprog
    res = linprog(np.ones(18), A_eq=np.hstack([A, -A]), b_eq=A @ X, bounds=(0, None))
    assert res.status == 0 and abs(res.fun - np.abs(X).sum()) <= 1e-9
"""


def _ieee9_lp_in_process():
    names = {}
    exec(_IEEE9_LP, names)
    return names["solve"]()


class TestLazyHighsImport:
    """HiGHS's bindings load from their file at the first LP solve, without
    scipy.optimize, as the same module object that scipy.optimize imports."""

    def test_import_loads_no_scipy(self):
        out = _fresh_interpreter(
            "import sys, gridsense, gridsense.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.strip() == "[]"

    def test_lp_solve_loads_only_the_bindings(self):
        out = _fresh_interpreter(_IEEE9_LP + """
print(solve())
print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
""").split("\n")
        core, loaded = recon._HIGHS_CORE, out[1].split()
        assert core in loaded
        assert all(m == core or m.startswith(core + ".") for m in loaded)
        # the same extension as linprog's, imported in this process
        assert out[0] == _ieee9_lp_in_process()

    @pytest.mark.parametrize(
        "steps",
        ["solve(); linprog_solves(); solve()", "linprog_solves(); solve(); linprog_solves()"],
    )
    def test_linprog_in_either_order(self, steps):
        out = _fresh_interpreter(_IEEE9_LP + steps + """
import importlib
cores = {id(recon._HIGHS.core), id(sys.modules[CORE]), id(importlib.import_module(CORE))}
print(len(cores), "scipy.optimize" in sys.modules)
""")
        assert out.split() == ["1", "True"]

    def test_threads_first_solves_load_once(self):
        # a slow file check widens the loader's window between finding the
        # module missing and registering it, where an unlocked loader would
        # let every thread load the file; the loads are counted
        out = _fresh_interpreter(_IEEE9_LP + """
import importlib.util, os, time
isfile, spec_from_file = os.path.isfile, importlib.util.spec_from_file_location
os.path.isfile = lambda path: time.sleep(0.05) or isfile(path)
loads = []
importlib.util.spec_from_file_location = lambda *a: loads.append(a) or spec_from_file(*a)
barrier = threading.Barrier(4)
cores, answers = [], []

def first_solve():
    barrier.wait(timeout=60)
    answers.append(solve())
    cores.append(recon._HIGHS.core)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_solve) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(sum(t.is_alive() for t in threads), len(answers), len(set(answers)),
      len({id(c) for c in cores} | {id(sys.modules[CORE])}), len(loads))
""")
        assert out.split() == ["0", "4", "1", "1", "1"]

    def test_another_solver_with_two_threads_first(self):
        # HiGHS refuses a run whose nonzero `threads` differs from the
        # process-wide scheduler's, which the first run in the process sets
        # up; linprog's does so with more than one thread on 3 or more cores.
        # With the default threads = 0, the basis-pursuit LP still runs
        out = _fresh_interpreter(_IEEE9_LP + """
from scipy.optimize._highspy import _core
other = _core._Highs()
other.setOptionValue("output_flag", False)
other.setOptionValue("threads", 2)
empty = np.zeros(0, dtype=np.int32)
other.passModel(
    1, 0, 0, int(_core.MatrixFormat.kColwise), int(_core.ObjSense.kMinimize), 0.0,
    np.ones(1), np.zeros(1), np.ones(1), np.zeros(0), np.zeros(0), np.zeros(1, np.int32),
    empty, np.zeros(0), np.zeros(1, np.int32),
)
assert other.run() == _core.HighsStatus.kOk
print(solve())
""")
        assert out.strip() == _ieee9_lp_in_process()

    def test_missing_bindings_name_the_paths(self, monkeypatch):
        monkeypatch.delitem(sys.modules, recon._HIGHS_CORE)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError, match=r"searched .*_highspy.*_core\.missing"):
            recon._highs_core()
        assert recon._HIGHS_CORE not in sys.modules


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
            injections=np.array([0.1]), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        est = constant_power_newton(SCALAR_Z2, meas, SolverConfig(), initial)
        assert est.converged
        assert est.iterations_used <= 30
        assert est.injections[0] == pytest.approx(2.0, abs=1e-8)

    # Z = [2], P = 8: the root is I = 2, so starting there takes no step
    @pytest.mark.parametrize("start, steps", [(2.0, 0), (1.0, 5)])
    def test_iterations_count_the_steps(self, start, steps):
        meas = MeasurementSet(power_constraints={1: 8.0})
        initial = SparseEstimate(np.array([start]), 0.0, 0, True)
        est = constant_power_newton(SCALAR_Z2, meas, SolverConfig(), initial)
        assert (est.converged, est.iterations_used) == (True, steps)
        assert est.injections[0] == pytest.approx(2.0, abs=1e-8)

    def test_zero_power_fixed_point(self):
        meas = MeasurementSet(power_constraints={1: 0.0})
        initial = SparseEstimate(
            injections=np.array([0.0]), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        est = constant_power_newton(SCALAR_Z2, meas, SolverConfig(), initial)
        assert abs(est.injections[0]) < 1e-4

    def test_initial_estimate_wrong_length(self):
        meas = MeasurementSet(power_constraints={1: 1.0})
        initial = SparseEstimate(np.ones(3), 0.0, 0, True)
        with pytest.raises(ValidationError, match="initial estimate must have length 2"):
            constant_power_newton(TWO_BUS_Z, meas, SolverConfig(), initial)

    def test_requires_power_constraints(self):
        initial = SparseEstimate(
            injections=np.array([0.0]), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        with pytest.raises(ValidationError):
            constant_power_newton(SCALAR_Z2, MeasurementSet(), SolverConfig(), initial)

    # bus 0 would index the last bus and bus m + 1 past the end
    @pytest.mark.parametrize("bus", [0, 3])
    def test_unknown_known_injection_bus(self, bus):
        meas = MeasurementSet(
            voltage_readings={1: 3.0}, known_injections={bus: 0.5}, power_constraints={2: 1.0},
        )
        initial = SparseEstimate(
            injections=np.array([1.0, 1.0]), residual_norm=0.0,
            iterations_used=0, converged=True,
        )
        with pytest.raises(ValidationError, match=f"known injection bus {bus} not in model"):
            constant_power_newton(TWO_BUS_Z, meas, SolverConfig(), initial)

    # bus 0 once read bus 9's row and diverged; bus 10 raised IndexError
    @pytest.mark.parametrize("bus", [0, 10])
    def test_unknown_voltage_reading_bus(self, ieee9_model, bus):
        meas = MeasurementSet(voltage_readings={bus: 1.0}, power_constraints={1: 0.5})
        initial = SparseEstimate(np.ones(9), 0.0, 0, True)
        with pytest.raises(ValidationError, match=f"voltage reading bus {bus} not in model"):
            constant_power_newton(ieee9_model, meas, SolverConfig(), initial)

    # a non-finite input was once reported as a divergence with ||r|| = nan
    @pytest.mark.parametrize(
        "section, bus, value",
        [
            ("voltage_readings", 2, np.nan),
            ("power_constraints", 5, np.inf),
            ("known_injections", 3, -np.inf),
            ("initial", 7, np.nan),
        ],
    )
    def test_non_finite_input(self, ieee9_model, section, bus, value):
        fields = {
            "voltage_readings": {1: 0.1, 2: 0.2},
            "known_injections": {3: 0.5},
            "power_constraints": {5: -0.3},
            "initial": dict.fromkeys(range(1, 10), 0.1),
        }
        fields[section][bus] = value
        initial = SparseEstimate(np.array(list(fields.pop("initial").values())), 0.0, 0, True)
        with pytest.raises(ValidationError, match="non-finite entries in solver input"):
            constant_power_newton(ieee9_model, MeasurementSet(**fields), SolverConfig(), initial)

    def test_divergence_carries_the_last_iterate(self, ieee9_model):
        buses, currents, sources = IEEE9_DIVERGING_POWER
        meas = ieee9_power_snapshot(ieee9_model, buses, currents, sources)
        with pytest.raises(NewtonDivergenceError) as caught:
            estimate_state(ieee9_model, meas, plan_for(buses), SolverConfig())
        last = caught.value.estimate
        assert str(caught.value) == (
            f"no damping step reduced the residual (||r|| = {last.residual_norm:.3e})"
        )
        assert f"{last.residual_norm:.3e}" == "1.843e-02"
        assert not last.converged
        assert 1 <= last.iterations_used <= SolverConfig.newton_max_iter
        assert np.isfinite(last.injections).all()


def _reference_newton_result(current, r, iterations, converged):
    return SparseEstimate(
        injections=current.copy(),
        residual_norm=float(np.linalg.norm(r)),
        iterations_used=iterations,
        converged=converged,
    )


def _reference_constant_power_newton(model, meas, cfg, initial):
    """constant_power_newton as it was before its one-pass rewrite, kept verbatim.

    The test-only oracle for the refinement's bits: it checks the power-bus
    ids in its own loop, evaluates the voltage residual as Z_sel @ I beside
    V = Z @ I, and tests convergence inside and after the loop.
    """
    m = model.size
    z = model.impedance
    if not meas.power_constraints:
        raise ValidationError("no power constraints to refine")
    power_buses = sorted(meas.power_constraints)
    for b in power_buses:
        if not 1 <= b <= m:
            raise ValidationError(f"power bus {b} not in model")
    for b in meas.known_injections:
        if not 1 <= b <= m:
            raise ValidationError(f"known injection bus {b} not in model")
    row_buses, v_meas = recon._voltage_rows(meas, meas.voltage_readings)
    z_sel = z[np.array(row_buses) - 1] if row_buses else np.zeros((0, m))

    current = np.asarray(initial.injections, dtype=float).copy()
    if current.shape != (m,):
        raise ValidationError(f"initial estimate must have length {m}")
    for b, val in meas.known_injections.items():
        current[b - 1] = val

    # all-zero power entries give an identically zero Jacobian row; nudge them
    for b in power_buses:
        if abs(current[b - 1]) < 1e-12:
            current[b - 1] = 1e-3

    unknown = sorted(
        (set(initial.support) | set(power_buses)) - set(meas.known_injections)
    )
    cols = np.array(unknown) - 1
    p_target = np.array([meas.power_constraints[b] for b in power_buses])

    def residual(ivec):
        v = z @ ivec
        parts = []
        if row_buses:
            parts.append(v_meas - z_sel @ ivec)
        parts.append(p_target - v[np.array(power_buses) - 1] * ivec[np.array(power_buses) - 1])
        return np.concatenate(parts)

    r = residual(current)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.newton_max_iter + 1):
        if np.linalg.norm(r) < cfg.newton_tol:
            converged = True
            break
        jac_power = jacobian_power_rows(model, current, power_buses)
        jac = np.vstack([z_sel, jac_power]) if row_buses else jac_power
        jac_red = jac[:, cols]
        step, *_ = np.linalg.lstsq(jac_red, r, rcond=None)
        # backtracking damping on the residual norm
        t = 1.0
        improved = False
        base = np.linalg.norm(r)
        for _ in range(30):
            trial = current.copy()
            trial[cols] += t * step
            r_trial = residual(trial)
            if np.linalg.norm(r_trial) < base:
                current = trial
                r = r_trial
                improved = True
                break
            t *= 0.5
        if not improved:
            est = _reference_newton_result(current, r, iterations, False)
            raise NewtonDivergenceError(
                f"no damping step reduced the residual (||r|| = {base:.3e})", est
            )
    if np.linalg.norm(r) < cfg.newton_tol:
        converged = True
    return _reference_newton_result(current, r, iterations, converged)


def _constant_power_snapshots(model, plan, load_bus, count, seed):
    """count noiseless snapshots, each of two injections away from load_bus
    (random signs, magnitudes in INJECTION_RANGE) and a load at load_bus that
    draws a current in INJECTION_RANGE, with its constraint P = V * I."""
    rng = np.random.default_rng(seed)
    m = model.size
    others = np.array([b for b in range(1, m + 1) if b != load_bus])
    for _ in range(count):
        i_true = np.zeros(m)
        support = rng.choice(others, 2, replace=False)
        i_true[support - 1] = rng.choice([-1.0, 1.0], 2) * rng.uniform(*INJECTION_RANGE, 2)
        i_true[load_bus - 1] = -rng.uniform(*INJECTION_RANGE)
        v = model.impedance @ i_true
        yield MeasurementSet(
            voltage_readings={b: v[b - 1] for b in plan.chosen},
            power_constraints={load_bus: v[load_bus - 1] * i_true[load_bus - 1]},
        )


def _steps_taken(reference):
    """The reference's estimate with its count of passes turned into the steps
    taken. Below newton_max_iter a converged reference stopped at the pass
    that found the root, one pass after its last step, and a diverged one
    raised in the pass whose damping failed, which counts as no step."""
    assert reference.iterations_used < SolverConfig.newton_max_iter
    return dataclasses.replace(reference, iterations_used=reference.iterations_used - 1)


class TestNewtonMatchesReference:
    """The one-pass refinement gives the reference's bits: the same answers
    and, where the reference diverges, the same error and last iterate. Its
    iteration count is the steps taken, one fewer than the reference's."""

    @pytest.mark.parametrize(
        "case, meters, load_bus, diverged", [("ieee9", 8, 5, 12), ("ieee118", 90, 45, 0)]
    )
    def test_bits_and_divergences(self, request, case, meters, load_bus, diverged):
        model = request.getfixturevalue(f"{case}_model")
        plan = greedy_place_sensors(model, meters)
        cfg = SolverConfig()
        failures = 0
        for meas in _constant_power_snapshots(model, plan, load_bus, 100, seed=7):
            initial = estimate_state(
                model, dataclasses.replace(meas, power_constraints={}), plan, cfg
            )
            try:
                want = _reference_constant_power_newton(model, meas, cfg, initial)
            except NewtonDivergenceError as exc:
                with pytest.raises(NewtonDivergenceError) as caught:
                    constant_power_newton(model, meas, cfg, initial)
                assert str(caught.value) == str(exc)
                _assert_same_estimate(caught.value.estimate, _steps_taken(exc.estimate))
                failures += 1
            else:
                got = constant_power_newton(model, meas, cfg, initial)
                _assert_same_estimate(got, _steps_taken(want))
        assert failures == diverged


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

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("voltage_sources", "3 4", "expected a single bus id"),
            ("voltages", "3", "expected: bus value"),
        ],
    )
    def test_wrong_token_count(self, section, line, message):
        text = f"gridsense-snapshot v1\n[{section}]\n{line}\n"
        with pytest.raises(CaseParseError, match=f"line 3: {message}"):
            MeasurementSet.from_text(text)

    def test_error_carries_line_number(self):
        with pytest.raises(CaseParseError, match="line 4: could not convert"):
            MeasurementSet.from_text("gridsense-snapshot v1\n[voltages]\n1 1.0\n2 x\n")

    @pytest.mark.parametrize("section, line", [("voltages", "3 0.5"), ("voltage_sources", "3")])
    def test_repeated_bus_in_section(self, section, line):
        text = f"gridsense-snapshot v1\n[{section}]\n{line}\n# again\n{line}\n"
        with pytest.raises(CaseParseError, match=rf"line 5: bus 3 appears twice in \[{section}\]"):
            MeasurementSet.from_text(text)

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

    @pytest.mark.parametrize(
        "readings, current",
        [({1: np.nan, 2: 0.1, 3: 0.2}, 0.1), ({1: 0.3, 2: 0.1, 3: 0.2}, np.inf)],
    )
    def test_all_injections_known_non_finite(self, ieee9_model, readings, current):
        # nothing is solved, but the input is checked as a solve checks it
        known = {b: 0.1 for b in range(1, 10)}
        known[4] = current
        meas = MeasurementSet(voltage_readings=readings, known_injections=known)
        with pytest.raises(ValidationError, match="non-finite entries in solver input"):
            estimate_state(ieee9_model, meas, plan_for([1, 2, 3]), SolverConfig())

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
            injections=np.zeros(9), residual_norm=0.0,
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


def _snapshot(model, plan, i_true, known=None, noise=0.0, rng=None):
    """(MeasurementSet, SolverConfig) of plan's readings of i_true, known currents in place."""
    i_true = i_true.copy()
    for b, val in (known or {}).items():
        i_true[b - 1] = val
    y = model.impedance[np.array(plan.chosen) - 1] @ i_true
    if noise:
        y = y + noise * rng.standard_normal(y.size)
    meas = MeasurementSet(voltage_readings=dict(zip(plan.chosen, y)), known_injections=known or {})
    return meas, SolverConfig(epsilon=noise * np.sqrt(y.size))


def _assert_same_estimate(got, want):
    assert got.injections.tobytes() == want.injections.tobytes()
    assert got.residual_norm.hex() == want.residual_norm.hex()
    assert (got.support, got.iterations_used, got.converged, got.route) == (
        want.support, want.iterations_used, want.converged, want.route
    )


class TestSystemMemo:
    """estimate_state reuses one MeasurementSystem per model, row buses and
    known injections, from a bounded memo; apply_current_offsets builds none."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        recon._memo_system.cache_clear()
        yield
        recon._memo_system.cache_clear()

    def test_one_build_for_fifty_snapshots(self, monkeypatch, ieee9_model):
        systems, arrays = [], []
        init, build = recon.MeasurementSystem.__init__, recon._bp_lp_arrays

        def spy_init(self, *args):
            systems.append(args)
            init(self, *args)

        monkeypatch.setattr(recon.MeasurementSystem, "__init__", spy_init)
        monkeypatch.setattr(recon, "_bp_lp_arrays", lambda an: arrays.append(an) or build(an))
        plan = greedy_place_sensors(ieee9_model, 7)
        rng = np.random.default_rng(4)
        for _ in range(50):
            i_true = np.zeros(9)
            i_true[rng.choice(9, 2, replace=False)] = rng.uniform(0.5, 1.5, 2)
            meas, cfg = _snapshot(ieee9_model, plan, i_true, known={3: 0.25})
            assert estimate_state(ieee9_model, meas, plan, cfg).route == "lp"
        assert len(systems) == 1
        assert len(arrays) == 1

    @pytest.mark.parametrize(
        "case, meters, snapshots", [("ieee9", 7, 24), ("ieee118", 60, 6)]
    )
    def test_bit_equal_to_a_fresh_system(self, request, case, meters, snapshots):
        model = request.getfixturevalue(f"{case}_model")
        m = model.size
        plan = greedy_place_sensors(model, meters)
        rng = np.random.default_rng(meters)
        inputs = []
        for k in range(snapshots):
            i_true = np.zeros(m)
            i_true[rng.choice(m, 2, replace=False)] = rng.uniform(0.5, 1.5, 2)
            known = {int(rng.integers(1, m + 1)): 0.5 if k % 2 else -0.2}
            inputs.append(_snapshot(model, plan, i_true, known, 0.01 * (k % 3 > 0), rng))
        reused = [estimate_state(model, meas, plan, cfg) for meas, cfg in inputs]
        assert {est.route for est in reused} == {"lp", "homotopy"}
        for (meas, cfg), got in zip(inputs, reused):
            recon._memo_system.cache_clear()
            _assert_same_estimate(got, estimate_state(model, meas, plan, cfg))
            _assert_same_estimate(got, _reference_estimate_state(model, meas, cfg))

    def test_known_values_each_get_their_offset(self, ieee9_model):
        sensors = (2, 5, 7, 9)
        rows = ieee9_model.impedance[np.array(sensors) - 1]
        y = rows @ np.linspace(0.1, 0.9, 9)
        for value in (1.0, -2.5, 1.0, 0.0, 3.0):
            got = apply_current_offsets(y, ieee9_model, sensors, {4: value, 8: 0.5})
            assert np.array_equal(got, y - rows[:, [3, 7]] @ np.array([value, 0.5]))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_known_current_kept(self, ieee9_model, zero):
        # 0.0 and -0.0 compare equal; each snapshot gets its own bits back
        plan = greedy_place_sensors(ieee9_model, 7)
        i_true = np.zeros(9)
        i_true[4] = 1.0
        for value in (-zero, zero):
            meas, cfg = _snapshot(ieee9_model, plan, i_true, known={3: value})
            est = estimate_state(ieee9_model, meas, plan, cfg)
            assert est.injections[2].hex() == value.hex()

    def test_models_never_share_an_entry(self):
        other = invert_to_impedance(np.array([[2.0, -1.0], [-1.0, 3.0]]))
        twin = invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 2.0]]))
        y = np.array([1.0, 2.0])
        for model in (TWO_BUS_Z, other, twin, TWO_BUS_Z):
            got = y - recon._system(model, [1, 2], {2: 1.0}).offset
            assert np.array_equal(got, y - model.impedance[:, 1])
        assert recon._memo_system.cache_info().currsize == 3
        assert recon._system(TWO_BUS_Z, [1, 2], {}) is not recon._system(twin, [1, 2], {})

    def test_bounded(self, ieee9_model):
        assert recon._memo_system.cache_info().maxsize == recon._SYSTEMS_KEPT
        plans = list(itertools.combinations(range(1, 10), 3))[: 3 * recon._SYSTEMS_KEPT]
        for buses in plans:
            recon._system(ieee9_model, buses, {1: 0.5})
            assert recon._memo_system.cache_info().currsize <= recon._SYSTEMS_KEPT
        assert recon._memo_system.cache_info().currsize == recon._SYSTEMS_KEPT

    def test_offsets_in_plan_order_add_no_entry(self, ieee9_model):
        # estimate_state reads the meters in ascending bus order; offsets in
        # the plan's own order must not build a second system for the plan
        plan = plan_for((1, 2, 3, 5, 7, 9, 4))
        i_true = np.zeros(9)
        i_true[4] = 1.0
        meas, cfg = _snapshot(ieee9_model, plan, i_true, known={3: 0.25})
        estimate_state(ieee9_model, meas, plan, cfg)
        y = np.array([meas.voltage_readings[b] for b in plan.chosen])
        got = apply_current_offsets(y, ieee9_model, plan.chosen, meas.known_injections)
        assert np.array_equal(got, y - 0.25 * ieee9_model.impedance[np.array(plan.chosen) - 1, 2])
        assert recon._memo_system.cache_info().currsize == 1

    def test_threads_get_the_serial_answers(self, ieee9_model):
        # four plans, each snapshot stream on its own thread; every thread
        # builds or looks up its system while the others solve
        plans = [plan_for(b) for b in ((1, 2, 4, 5, 7, 8, 9), (2, 3, 5, 6, 8, 9), (1, 3, 4, 6, 7, 9),
                                       (1, 2, 3, 4, 5, 6, 7, 8))]
        rng = np.random.default_rng(12)
        work = []
        for plan in plans:
            snaps = []
            for k in range(20):
                i_true = np.zeros(9)
                i_true[rng.choice(9, 2, replace=False)] = rng.uniform(0.5, 1.5, 2)
                snaps.append(_snapshot(ieee9_model, plan, i_true, {6: -0.3}, 0.01 * (k % 2), rng))
            work.append((plan, snaps))
        serial = [[estimate_state(ieee9_model, meas, plan, cfg) for meas, cfg in snaps]
                  for plan, snaps in work]
        recon._memo_system.cache_clear()
        results = {}

        def run(i):
            plan, snaps = work[i]
            results[i] = [estimate_state(ieee9_model, meas, plan, cfg) for meas, cfg in snaps]

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
            for got, est in zip(results[i], want, strict=True):
                _assert_same_estimate(got, est)
