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
    recovery_bound_factor,
)
from gridsense import sensing
from gridsense.network import ImpedanceModel


def identity_model(m: int):
    return invert_to_impedance(np.eye(m))


TWO_BUS_Z = invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 2.0]]))  # Z=[[2,1],[1,1]]


def _coherence_from_gram(ata, norms2, zero_tol):
    """Largest off-diagonal |g| of the M x M normalized Gram, clamped at 1.0."""
    nonzero = norms2 > zero_tol * zero_tol
    safe = np.sqrt(np.where(nonzero, norms2, 1.0))
    gram = ata / np.outer(safe, safe)
    mask = np.outer(nonzero, nonzero)
    np.fill_diagonal(mask, False)
    return min(float(np.abs(gram[mask]).max()), 1.0) if mask.any() else 0.0


def _reference_greedy(model, k):
    """Unpruned greedy on the full M x M Gram: every remaining bus gets the
    full evaluation.

    The oracle for greedy_place_sensors, which must return the same plan and
    the same trace bit for bit; it shares no code with it.
    """
    z = model.impedance
    zero_tol = sensing._ZERO_COL_RTOL * max(1.0, float(np.abs(z).max()))
    remaining = list(range(1, model.size + 1))
    first = max(remaining, key=lambda b: (int((np.abs(z[b - 1]) > zero_tol).sum()), -b))
    chosen = [first]
    remaining.remove(first)
    ata = np.outer(z[first - 1], z[first - 1])
    norms2 = z[first - 1] ** 2
    trace = [_coherence_from_gram(ata, norms2, zero_tol)]
    for _ in range(1, k):
        best_bus = None
        best_obj = math.inf
        for b in remaining:
            a = z[b - 1]
            obj = _coherence_from_gram(ata + np.outer(a, a), norms2 + a * a, zero_tol)
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
        assert mat.shape == (1, 2)
        assert np.allclose(mat, [[2.0, 1.0]])

    def test_all_buses_full_z(self):
        mat = assemble_measurement_matrix(TWO_BUS_Z, [1, 2])
        assert np.array_equal(mat, TWO_BUS_Z.impedance)

    def test_candidate_restriction(self):
        mat = assemble_measurement_matrix(TWO_BUS_Z, [2], candidate_buses=[2])
        assert np.allclose(mat, [[1.0]])
        assert mat.shape == (1, 1)

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
        assert mat.shape == (2, 0)


class TestGramCoherence:
    def test_identity_matrix(self):
        report = gram_coherence(np.eye(4))
        assert report.mutual_coherence == 0.0
        assert report.zero_columns == ()

    def test_identical_columns(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert gram_coherence(a).mutual_coherence == pytest.approx(1.0)

    def test_analytic_pair(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert gram_coherence(a).mutual_coherence == pytest.approx(1 / math.sqrt(2))
        # the assembled two-bus Z = [[2, 1], [1, 1]]: columns (2, 1) and (1, 1)
        z = assemble_measurement_matrix(TWO_BUS_Z, [1, 2])
        assert gram_coherence(z).mutual_coherence == pytest.approx(3 / math.sqrt(10))

    def test_zero_column_reported_and_excluded(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        report = gram_coherence(a)
        assert report.zero_columns == (2,)
        assert report.mutual_coherence == pytest.approx(1 / math.sqrt(2))

    def test_all_zero_error(self):
        with pytest.raises(ValidationError):
            gram_coherence(np.zeros((2, 2)))

    @pytest.mark.parametrize("a", [[[math.nan, 1.0], [1.0, 1.0]], [[math.inf, 1.0], [1.0, 2.0]]])
    def test_non_finite_error(self, a):
        with pytest.raises(ValidationError, match="non-finite entries"):
            gram_coherence(np.array(a))

    @pytest.mark.parametrize("a", [[1.0, 2.0], 3.0, np.ones((2, 2, 2))])
    def test_not_two_dimensional_error(self, a):
        with pytest.raises(ValidationError, match="must be 2-D"):
            gram_coherence(a)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_gram_symmetric_unit_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 6))
        report = gram_coherence(a)
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
        full = gram_coherence(assemble_measurement_matrix(ieee9_model, plan.chosen))
        assert plan.final_coherence == full.mutual_coherence

    def test_k_out_of_range(self, ieee9_model):
        with pytest.raises(ValidationError):
            greedy_place_sensors(ieee9_model, 0)
        with pytest.raises(ValidationError):
            greedy_place_sensors(ieee9_model, 10)

    def test_trace_internally_consistent(self, ieee9_model, ieee118_model):
        # each trace entry is the coherence of the plan's first rows, bit for bit
        for model, k in ((ieee9_model, 5), (ieee118_model, 20), (ieee118_model, 60),
                         (ieee118_model, 90)):
            plan = greedy_place_sensors(model, k)
            assert len(plan.objective_trace) == k
            for t in range(k):
                mat = assemble_measurement_matrix(model, plan.chosen[: t + 1])
                assert plan.objective_trace[t] == gram_coherence(mat).mutual_coherence
            assert plan.final_coherence == plan.objective_trace[-1]

    def test_no_duplicates(self, ieee118_model):
        plan = greedy_place_sensors(ieee118_model, 20)
        assert len(set(plan.chosen)) == 20


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

    def test_prunes_candidates_on_ieee118(self, ieee118_model, monkeypatch):
        n_pairs = 118 * 117 // 2
        calls = []
        inner = sensing._pair_coherence

        def spy(ata_pairs, norms2, rows, i, j, zero_tol2):
            if i.size == n_pairs:  # the exact objective, not the bound
                calls.append(rows)
            return inner(ata_pairs, norms2, rows, i, j, zero_tol2)

        monkeypatch.setattr(sensing, "_pair_coherence", spy)
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
        k = data.draw(st.integers(1, m), label="k")
        plan = greedy_place_sensors(model, k)
        assert_same_plan(plan, _reference_greedy(model, k))
        rows = z[np.array(plan.chosen) - 1]
        assert gram_coherence(rows).mutual_coherence == plan.final_coherence


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

    def test_negative_seed_named(self, ieee9_model):
        with pytest.raises(ValidationError, match=r"^seed must be >= 0, got -1$"):
            random_place_sensors(ieee9_model, 5, seed=-1)


class TestRecoveryBound:
    def test_zero_coherence(self):
        report = gram_coherence(np.eye(3))
        assert recovery_bound_factor(report, 2) == 0.0

    def test_direct_formula(self):
        report = gram_coherence(np.array([[1.0, 1.0], [0.0, 1.0]]))
        # mu = 1/sqrt(2): mu^2 * S * ln(signal_dim) with S=2 mirrors 0.5*2*ln 2
        assert recovery_bound_factor(report, 2) == pytest.approx(0.5 * 2 * math.log(2))

    def test_formula_mu_half(self):
        # 9 columns: e1..e8 orthonormal plus 0.5*e1 + sqrt(3)/2*e9, so mu = 0.5
        a = np.eye(9)[:, :8]
        last = np.zeros((9, 1))
        last[0, 0] = 0.5
        last[8, 0] = math.sqrt(3) / 2
        report = gram_coherence(np.hstack([a, last]))
        assert report.mutual_coherence == pytest.approx(0.5)
        out = recovery_bound_factor(report, 2)
        assert out == pytest.approx(0.25 * 2 * math.log(9))
        assert out == pytest.approx(1.0986, abs=1e-3)

    def test_identical_columns_formula(self):
        a = np.ones((2, 100))
        out = recovery_bound_factor(gram_coherence(a), 3)
        assert out == pytest.approx(3 * math.log(100), rel=1e-12)
        assert out == pytest.approx(13.8155, abs=1e-3)

    def test_invalid_sparsity(self):
        with pytest.raises(ValidationError):
            recovery_bound_factor(gram_coherence(np.eye(2)), 0)


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

    @pytest.mark.parametrize("fixture", ["ieee9_model", "ieee118_model"])
    def test_written_plans_parse_to_equal_objects(self, fixture, request):
        model = request.getfixturevalue(fixture)
        for plan in (greedy_place_sensors(model, 7), random_place_sensors(model, 7, seed=5)):
            written = PlacementPlan(
                plan.chosen, tuple(float(f"{v:.12g}") for v in plan.objective_trace),
                float(f"{plan.final_coherence:.12g}"),
            )
            assert PlacementPlan.from_text(plan.to_text()) == written

    def test_missing_field(self):
        with pytest.raises(CaseParseError):
            PlacementPlan.from_text("gridsense-plan v1\nbuses 1 2\n")

    @pytest.mark.parametrize(
        "lines, message",
        [("buses 1 2 3\nfinal_coherence 0.5 junk 7", "line 3: expected: final_coherence value"),
         ("buses 1 2 3\nfinal_coherence", "line 3: expected: final_coherence value"),
         ("buses 1 2 3\ntrace x\nfinal_coherence 0.5", "line 3: could not convert .* 'x'"),
         ("buses 1 y\nfinal_coherence 0.5", "line 2: invalid literal for int"),
         ("buses 1 2\nfinal_coherence 0.5x", "line 3: could not convert .* '0.5x'")],
    )
    def test_bad_value_names_line(self, lines, message):
        text = f"gridsense-plan v1\n{lines}\n"
        with pytest.raises(CaseParseError, match=message):
            PlacementPlan.from_text(text)

    def test_inline_comment(self):
        plan = PlacementPlan.from_text("gridsense-plan v1\nbuses 1 2 3  # note\nfinal_coherence 0.5\n")
        assert plan.chosen == (1, 2, 3)

    @pytest.mark.parametrize(
        "line, message",
        [("buses 4 5", "line 4: repeated plan key 'buses'"),
         ("bus 4 5", "line 4: unknown plan key 'bus'")],
    )
    def test_repeated_or_unknown_key(self, line, message):
        text = f"gridsense-plan v1\nbuses 1 2 3\nfinal_coherence 0.5\n{line}\n"
        with pytest.raises(CaseParseError, match=message):
            PlacementPlan.from_text(text)

    def test_comments_and_blank_lines(self):
        text = "gridsense-plan v1\n# note\n\nbuses 3 1\ntrace 0.5 0.25\nfinal_coherence 0.25\n"
        plan = PlacementPlan.from_text(text)
        assert plan.chosen == (3, 1)
        assert plan.objective_trace == (0.5, 0.25)
