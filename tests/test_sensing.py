"""Measurement matrices, Gram coherence, and greedy/random sensor placement."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsense import (
    CaseParseError,
    PlacementPlan,
    ValidationError,
    assemble_measurement_matrix,
    gram_coherence,
    greedy_place_sensors,
    invert_to_impedance,
    random_place_sensors,
    recovery_bound_report,
)
from gridsense import sensing
from gridsense.network import ImpedanceModel


def identity_model(m: int):
    return invert_to_impedance(np.eye(m))


TWO_BUS_Z = invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 2.0]]))  # Z=[[2,1],[1,1]]


def _reference_greedy(model, k, candidate_sensor_buses=None):
    """Unpruned greedy: every remaining candidate gets the full evaluation.

    The oracle for greedy_place_sensors, which must return the same plan and
    the same trace bit for bit.
    """
    z = model.impedance
    zero_tol = sensing._ZERO_COL_RTOL * max(1.0, float(np.abs(z).max()))
    if candidate_sensor_buses is None:
        candidate_sensor_buses = range(1, model.size + 1)
    remaining = sorted(candidate_sensor_buses)
    first = max(remaining, key=lambda b: (int((np.abs(z[b - 1]) > zero_tol).sum()), -b))
    chosen = [first]
    remaining.remove(first)
    ata = np.outer(z[first - 1], z[first - 1])
    norms2 = z[first - 1] ** 2
    trace = [sensing._coherence_from_gram(ata, norms2, zero_tol)]
    for _ in range(1, k):
        best_bus = None
        best_obj = math.inf
        for b in remaining:
            a = z[b - 1]
            obj = sensing._coherence_from_gram(ata + np.outer(a, a), norms2 + a * a, zero_tol)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_bus = b
        chosen.append(best_bus)
        remaining.remove(best_bus)
        a = z[best_bus - 1]
        ata += np.outer(a, a)
        norms2 += a * a
        trace.append(best_obj)
    return PlacementPlan(
        chosen=tuple(chosen), objective_trace=tuple(trace), final_coherence=trace[-1]
    )


def assert_same_plan(plan, ref):
    assert plan.chosen == ref.chosen
    assert plan.objective_trace == ref.objective_trace
    assert plan.final_coherence == ref.final_coherence


class TestAssembleMeasurementMatrix:
    def test_row_selection(self):
        mat = assemble_measurement_matrix(TWO_BUS_Z, [1])
        assert np.allclose(mat.rows, [[2.0, 1.0]])
        assert mat.sensor_buses == (1,)
        assert mat.candidate_buses == (1, 2)

    def test_all_buses_full_z(self):
        mat = assemble_measurement_matrix(TWO_BUS_Z, [1, 2])
        assert np.allclose(mat.rows, TWO_BUS_Z.impedance)

    def test_candidate_restriction(self):
        mat = assemble_measurement_matrix(TWO_BUS_Z, [2], candidate_buses=[2])
        assert np.allclose(mat.rows, [[1.0]])
        assert mat.n_sensors == 1 and mat.n_candidates == 1

    def test_duplicate_sensor_error(self):
        with pytest.raises(ValidationError):
            assemble_measurement_matrix(TWO_BUS_Z, [1, 1])

    def test_unknown_bus_error(self):
        with pytest.raises(ValidationError):
            assemble_measurement_matrix(TWO_BUS_Z, [3])

    def test_no_sensor_error(self):
        with pytest.raises(ValidationError, match="no sensor buses"):
            assemble_measurement_matrix(TWO_BUS_Z, [])

    def test_no_candidate_columns(self):
        mat = assemble_measurement_matrix(TWO_BUS_Z, [2, 1], candidate_buses=[])
        assert mat.rows.shape == (2, 0)


class TestGramCoherence:
    def test_identity_matrix(self):
        report = gram_coherence(np.eye(4))
        assert report.mutual_coherence == 0.0
        assert report.max_offdiag == 0.0
        assert report.zero_columns == ()

    def test_identical_columns(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert gram_coherence(a).mutual_coherence == pytest.approx(1.0)

    def test_analytic_pair(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert gram_coherence(a).mutual_coherence == pytest.approx(1 / math.sqrt(2))

    def test_zero_column_reported_and_excluded(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        report = gram_coherence(a)
        assert report.zero_columns == (2,)
        assert report.mutual_coherence == pytest.approx(1 / math.sqrt(2))

    def test_all_zero_error(self):
        with pytest.raises(ValidationError):
            gram_coherence(np.zeros((2, 2)))

    def test_accepts_measurement_matrix(self):
        mat = assemble_measurement_matrix(TWO_BUS_Z, [1, 2])
        direct = gram_coherence(TWO_BUS_Z.impedance)
        via_mat = gram_coherence(mat)
        assert via_mat.mutual_coherence == pytest.approx(direct.mutual_coherence)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gram_symmetric_unit_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 6))
        report = gram_coherence(a)
        assert np.allclose(report.gram, report.gram.T, atol=1e-12)
        assert np.allclose(np.diag(report.gram), 1.0, atol=1e-12)
        assert 0.0 <= report.mutual_coherence <= 1.0 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        negate=st.booleans(),
    )
    def test_global_scale_invariance(self, seed, scale, negate):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 5))
        c = -scale if negate else scale
        base = gram_coherence(a)
        scaled = gram_coherence(c * a)
        assert np.allclose(base.gram, scaled.gram, atol=1e-12)
        assert scaled.mutual_coherence == pytest.approx(base.mutual_coherence, abs=1e-12)


class TestGreedyPlacement:
    def test_identity_picks_lowest_ids(self):
        plan = greedy_place_sensors(identity_model(4), 2)
        assert plan.chosen == (1, 2)
        assert plan.objective_trace == (0.0, 0.0)
        assert plan.final_coherence == 0.0

    def test_identity_zero_coherence_all_k(self):
        model = identity_model(5)
        for k in range(1, 6):
            assert greedy_place_sensors(model, k).final_coherence == 0.0

    def test_exhaustive_equals_full_gram(self, ieee9_model):
        plan = greedy_place_sensors(ieee9_model, 9)
        assert sorted(plan.chosen) == list(range(1, 10))
        full = gram_coherence(assemble_measurement_matrix(ieee9_model, sorted(plan.chosen)))
        assert plan.final_coherence == pytest.approx(full.mutual_coherence, abs=1e-12)

    def test_k_out_of_range(self, ieee9_model):
        with pytest.raises(ValidationError):
            greedy_place_sensors(ieee9_model, 0)
        with pytest.raises(ValidationError):
            greedy_place_sensors(ieee9_model, 10)

    def test_trace_internally_consistent(self, ieee9_model):
        plan = greedy_place_sensors(ieee9_model, 5)
        assert len(plan.objective_trace) == 5
        for t in range(5):
            mat = assemble_measurement_matrix(ieee9_model, plan.chosen[: t + 1])
            step = gram_coherence(mat).mutual_coherence
            assert plan.objective_trace[t] == pytest.approx(step, abs=1e-9)
        assert plan.final_coherence == plan.objective_trace[-1]

    def test_candidate_restriction_respected(self, ieee9_model):
        plan = greedy_place_sensors(ieee9_model, 3, candidate_sensor_buses=[2, 4, 6, 8])
        assert set(plan.chosen) <= {2, 4, 6, 8}

    def test_no_duplicates(self, ieee118_model):
        plan = greedy_place_sensors(ieee118_model, 20)
        assert len(set(plan.chosen)) == 20

    @pytest.mark.parametrize("bad", [0, 10])
    def test_unknown_candidate_bus(self, ieee9_model, bad):
        with pytest.raises(ValidationError, match="unknown bus id"):
            greedy_place_sensors(ieee9_model, 2, candidate_sensor_buses=[bad, 3])


class TestGreedyMatchesReference:
    """The pruned greedy returns exactly the unpruned search's plans."""

    # the reference's round r never depends on k, so the plan for k is the
    # first k rounds of the plan for the largest k
    @pytest.mark.parametrize(
        "model_name, ks",
        [("ieee9_model", range(1, 10)), ("ieee118_model", (1, 2, 20, 60, 90, 118))],
    )
    def test_bundled_cases(self, request, model_name, ks):
        model = request.getfixturevalue(model_name)
        ref = _reference_greedy(model, max(ks))
        for k in ks:
            plan = greedy_place_sensors(model, k)
            assert plan.chosen == ref.chosen[:k]
            assert plan.objective_trace == ref.objective_trace[:k]

    def test_candidate_restriction(self, ieee9_model, ieee118_model):
        for model, cands, k in (
            (ieee9_model, [2, 4, 6, 8], 3),
            (ieee118_model, list(range(118, 0, -3)), 25),
        ):
            assert_same_plan(
                greedy_place_sensors(model, k, candidate_sensor_buses=cands),
                _reference_greedy(model, k, cands),
            )

    def test_prunes_candidates_on_ieee118(self, ieee118_model, monkeypatch):
        calls = []
        inner = sensing._coherence_from_gram

        def spy(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(sensing, "_coherence_from_gram", spy)
        greedy_place_sensors(ieee118_model, 20)
        # the unpruned search makes 1 + (117 + 116 + ... + 99) = 2053 calls
        assert len(calls) < 2053 // 10

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(5, 40),
        n_twins=st.integers(0, 4),
        n_zero=st.integers(0, 2),
        data=st.data(),
    )
    def test_random_models(self, seed, m, n_twins, n_zero, data):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((m, m))
        z = b @ b.T + 0.1 * np.eye(m)
        # twin buses: row and column copies (scaled) give exactly collinear
        # columns, the saturated regime where the objective clamps at 1.0
        for _ in range(n_twins):
            src, dst = rng.choice(m, size=2, replace=False)
            scale = float(rng.choice([1.0, -2.0, 0.5]))
            z[:, dst] = scale * z[:, src]
            z[dst, :] = scale * z[src, :]
        # invisible buses: a zero row observes nothing, a zero column is unseen
        for r in rng.choice(m, size=n_zero, replace=False):
            z[r, :] = 0.0
            z[:, r] = 0.0
        model = ImpedanceModel(
            conductance=np.eye(m), impedance=z, folded_loads=(), condition_estimate=1.0
        )
        cands = data.draw(
            st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True), label="cands"
        )
        k = data.draw(st.integers(1, len(cands)), label="k")
        assert_same_plan(
            greedy_place_sensors(model, k, candidate_sensor_buses=cands),
            _reference_greedy(model, k, cands),
        )


class TestRandomPlacement:
    def test_seed_determinism(self, ieee9_model):
        a = random_place_sensors(ieee9_model, 5, seed=17)
        b = random_place_sensors(ieee9_model, 5, seed=17)
        assert a == b

    def test_k_equals_m(self, ieee9_model):
        for seed in (0, 1, 99):
            plan = random_place_sensors(ieee9_model, 9, seed=seed)
            assert plan.chosen == tuple(range(1, 10))

    def test_trace_holds_final_coherence(self, ieee9_model):
        plan = random_place_sensors(ieee9_model, 4, seed=3)
        assert plan.objective_trace == (plan.final_coherence,)
        mat = assemble_measurement_matrix(ieee9_model, plan.chosen)
        assert plan.final_coherence == pytest.approx(gram_coherence(mat).mutual_coherence)

    def test_k_out_of_range(self, ieee9_model):
        with pytest.raises(ValidationError):
            random_place_sensors(ieee9_model, 10, seed=0)

    @pytest.mark.parametrize("bad", [0, 10])
    def test_unknown_candidate_bus(self, ieee9_model, bad):
        with pytest.raises(ValidationError, match="unknown bus id"):
            random_place_sensors(ieee9_model, 2, seed=0, candidate_sensor_buses=[bad, 3])


class TestRecoveryBound:
    def test_zero_coherence(self):
        report = gram_coherence(np.eye(3))
        assert recovery_bound_report(report, 2, 3).bound_factor == 0.0

    def test_direct_formula(self):
        report = gram_coherence(np.array([[1.0, 1.0], [0.0, 1.0]]))
        # mu = 1/sqrt(2): mu^2 * S * ln(signal_dim) with S=2 mirrors 0.5*2*ln 2
        out = recovery_bound_report(report, 2, 9)
        assert out.bound_factor == pytest.approx(0.5 * 2 * math.log(2))
        assert out.sensors_available == 9

    def test_formula_mu_half(self):
        # 9 columns: e1..e8 orthonormal plus 0.5*e1 + sqrt(3)/2*e9, so mu = 0.5
        a = np.eye(9)[:, :8]
        last = np.zeros((9, 1))
        last[0, 0] = 0.5
        last[8, 0] = math.sqrt(3) / 2
        report = gram_coherence(np.hstack([a, last]))
        assert report.mutual_coherence == pytest.approx(0.5)
        out = recovery_bound_report(report, 2, 9)
        assert out.bound_factor == pytest.approx(0.25 * 2 * math.log(9))
        assert out.bound_factor == pytest.approx(1.0986, abs=1e-3)

    def test_identical_columns_formula(self):
        a = np.ones((2, 100))
        out = recovery_bound_report(gram_coherence(a), 3, 100)
        assert out.bound_factor == pytest.approx(3 * math.log(100), rel=1e-12)
        assert out.bound_factor == pytest.approx(13.8155, abs=1e-3)

    def test_invalid_sparsity(self):
        with pytest.raises(ValidationError):
            recovery_bound_report(gram_coherence(np.eye(2)), 0, 2)


class TestPlanSerialization:
    def test_round_trip(self, ieee9_model):
        plan = greedy_place_sensors(ieee9_model, 6)
        back = PlacementPlan.from_text(plan.to_text())
        assert back.chosen == plan.chosen
        assert back.objective_trace == pytest.approx(plan.objective_trace, rel=1e-11)
        assert back.final_coherence == pytest.approx(plan.final_coherence, rel=1e-11)

    def test_missing_header(self):
        with pytest.raises(CaseParseError):
            PlacementPlan.from_text("buses 1 2\nfinal_coherence 0.5\n")

    def test_missing_field(self):
        with pytest.raises(CaseParseError):
            PlacementPlan.from_text("gridsense-plan v1\nbuses 1 2\n")

    def test_comments_and_blank_lines(self):
        text = "gridsense-plan v1\n# note\n\nbuses 3 1\ntrace 0.5 0.25\nfinal_coherence 0.25\n"
        plan = PlacementPlan.from_text(text)
        assert plan.chosen == (3, 1)
        assert plan.objective_trace == (0.5, 0.25)
