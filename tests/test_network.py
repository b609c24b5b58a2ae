"""Case parsing, conductance assembly and impedance inversion."""

from __future__ import annotations

import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsense import (
    Branch,
    Bus,
    CaseParseError,
    DcNetwork,
    InjectionDevice,
    SingularModelError,
    ValidationError,
    build_conductance_matrix,
    build_impedance_model,
    bundled_case_path,
    invert_to_impedance,
    load_network,
)
from gridsense.network import CONDITION_CEILING

from conftest import TWO_BUS_CASE, random_connected_network


class TestLoadNetwork:
    def test_two_bus_case(self, two_bus_network):
        assert two_bus_network.size == 2
        assert len(two_bus_network.branches) == 1
        assert two_bus_network.buses[1].shunt_resistance == 1.0

    def test_ieee9_case(self, ieee9_network):
        assert ieee9_network.size == 9
        assert len(ieee9_network.branches) == 9

    def test_ieee118_case(self, ieee118_network):
        assert ieee118_network.size == 118
        assert len(ieee118_network.branches) == 186

    def test_missing_header(self):
        with pytest.raises(CaseParseError):
            load_network("[buses]\n1\n")

    def test_dangling_branch_bus(self):
        text = TWO_BUS_CASE + "1 99 1.0\n"
        with pytest.raises(ValidationError):
            load_network(text)

    def test_malformed_branch_line(self):
        with pytest.raises(CaseParseError):
            load_network("gridsense-case v1\n[branches]\n1 2\n")

    def test_unknown_section(self):
        with pytest.raises(CaseParseError):
            load_network("gridsense-case v1\n[unknown]\n")

    def test_data_before_section(self):
        with pytest.raises(CaseParseError):
            load_network("gridsense-case v1\n1 2 1.0\n")

    def test_comments_ignored(self):
        text = "# comment\n" + TWO_BUS_CASE.replace("[branches]", "# mid\n[branches]")
        assert load_network(text).size == 2

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("buses", "1 a 1.0 2", "expected: id [name] [shunt_resistance]"),
            ("devices", "1 current_source", "expected: bus kind value"),
        ],
    )
    def test_wrong_token_count(self, section, line, message):
        text = f"gridsense-case v1\n[{section}]\n{line}\n"
        with pytest.raises(CaseParseError, match=re.escape(f"line 3: {message}")):
            load_network(text)

    def test_unsupported_source(self):
        with pytest.raises(TypeError, match="unsupported case source <class 'int'>"):
            load_network(42)

    def test_relative_path_named_like_header(self, tmp_path, monkeypatch):
        shutil.copy(bundled_case_path("ieee9.case"), tmp_path / "gridsense-ieee9.case")
        monkeypatch.chdir(tmp_path)
        assert load_network("gridsense-ieee9.case").size == 9


class TestNetworkValidation:
    def test_no_buses(self):
        with pytest.raises(ValidationError, match="network has no buses"):
            DcNetwork((), ())

    def test_zero_shunt(self):
        with pytest.raises(ValidationError, match="bus 1: shunt resistance must be > 0"):
            DcNetwork((Bus(id=1, shunt_resistance=0.0),), ())

    def test_device_on_unknown_bus(self):
        buses = (Bus(id=1, shunt_resistance=1.0),)
        with pytest.raises(ValidationError, match="device references unknown bus 5"):
            DcNetwork(buses, (), (InjectionDevice(5, "current_source", 1.0),))

    def test_non_contiguous_ids(self):
        with pytest.raises(ValidationError):
            DcNetwork((Bus(id=1), Bus(id=3)), (Branch(1, 3, 1.0),))

    def test_self_loop(self):
        with pytest.raises(ValidationError):
            DcNetwork((Bus(id=1, shunt_resistance=1.0),), (Branch(1, 1, 1.0),))

    def test_negative_resistance(self):
        with pytest.raises(ValidationError):
            DcNetwork((Bus(id=1), Bus(id=2)), (Branch(1, 2, -1.0),))

    def test_disconnected_graph(self):
        buses = (Bus(id=1), Bus(id=2), Bus(id=3))
        with pytest.raises(ValidationError, match="not connected"):
            DcNetwork(buses, (Branch(1, 2, 1.0),))

    def test_zero_resistance_load_device(self):
        buses = (Bus(id=1, shunt_resistance=1.0),)
        with pytest.raises(ValidationError):
            DcNetwork(buses, (), (InjectionDevice(1, "constant_resistance_load", 0.0),))

    def test_unknown_device_kind(self):
        buses = (Bus(id=1, shunt_resistance=1.0),)
        with pytest.raises(ValidationError):
            DcNetwork(buses, (), (InjectionDevice(1, "flux_capacitor", 1.0),))

    def test_duplicate_voltage_source(self):
        buses = (Bus(id=1, shunt_resistance=1.0),)
        devs = (
            InjectionDevice(1, "voltage_source", 1.0),
            InjectionDevice(1, "voltage_source", 1.1),
        )
        with pytest.raises(ValidationError):
            DcNetwork(buses, (), devs)


class TestBuildConductance:
    def test_two_bus_with_shunt(self, two_bus_network):
        g = build_conductance_matrix(two_bus_network)
        assert np.allclose(g, [[1.0, -1.0], [-1.0, 2.0]])

    def test_single_bus_shunt(self):
        net = DcNetwork((Bus(id=1, shunt_resistance=2.0),), ())
        assert np.allclose(build_conductance_matrix(net), [[0.5]])

    def test_no_shunt_singular_form(self):
        net = DcNetwork((Bus(id=1), Bus(id=2)), (Branch(1, 2, 1.0),))
        assert np.allclose(build_conductance_matrix(net), [[1.0, -1.0], [-1.0, 1.0]])

    def test_parallel_branches_sum(self):
        net = DcNetwork(
            (Bus(id=1, shunt_resistance=1.0), Bus(id=2)),
            (Branch(1, 2, 1.0), Branch(1, 2, 1.0)),
        )
        g = build_conductance_matrix(net)
        assert np.allclose(g, [[3.0, -2.0], [-2.0, 2.0]])

    def test_load_joins_the_diagonal(self):
        net = DcNetwork(
            (Bus(id=1), Bus(id=2, shunt_resistance=1.0)),
            (Branch(1, 2, 1.0),),
            (InjectionDevice(1, "constant_resistance_load", 1.0),),
        )
        assert np.allclose(build_conductance_matrix(net), [[2.0, -1.0], [-1.0, 2.0]])


class TestInvertToImpedance:
    def test_analytic_two_by_two(self):
        model = invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 2.0]]))
        assert np.allclose(model.impedance, [[2.0, 1.0], [1.0, 1.0]])

    def test_identity(self):
        model = invert_to_impedance(np.eye(3))
        assert np.allclose(model.impedance, np.eye(3))
        assert model.condition_estimate == pytest.approx(1.0)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularModelError):
            invert_to_impedance(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    @pytest.mark.parametrize(
        "g, message",
        [
            ([[0.0, 1.0], [1.0, 0.0]], "pivot 0.000e+00 at bus 1"),
            ([[1.0, 2.0], [2.0, 1.0]], "pivot -3.000e+00 at bus 2"),
        ],
    )
    def test_indefinite_rejected(self, g, message):
        # well conditioned (cond 1 and 3) but not positive definite
        with pytest.raises(SingularModelError, match=re.escape(message)):
            invert_to_impedance(np.array(g))

    @pytest.mark.parametrize("fixture", ["ieee9_model", "ieee118_model"])
    def test_matches_lapack_inverse(self, fixture, request):
        model = request.getfixturevalue(fixture)
        g = build_conductance_matrix(request.getfixturevalue(fixture.replace("model", "network")))
        z = np.linalg.inv(g)
        assert np.abs(model.impedance - z).max() <= 1e-14 * np.abs(z).max()

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="conductance matrix must be square"):
            invert_to_impedance(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError):
            invert_to_impedance(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_condition_estimate_diagonal(self):
        model = invert_to_impedance(np.diag([1.0, 1e6]))
        assert model.condition_estimate == pytest.approx(1e6)

    def test_inverse_verification_failure_rejected(self):
        # symmetric positive definite, condition 7.5e7 (under the ceiling),
        # yet max |ZG - I| is 1.18e-7 with one OpenBLAS thread and with two
        g = np.array([
            [3229806941, -2575817918, -1811323382, 335298937, -1906427428, 343063783],
            [-2575817918, 2054307435, 1444035087, -267209740, 1520286981, -273535253],
            [-1811323382, 1444035087, 1021876230, -190461101, 1075961166, -203795513],
            [335298937, -267209740, -190461101, 35947810, -202002775, 43000105],
            [-1906427428, 1520286981, 1075961166, -202002775, 1171248457, -290302771],
            [343063783, -273535253, -203795513, 43000105, -290302771, 204893713],
        ], dtype=float)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() > 0
        assert np.linalg.cond(g) < CONDITION_CEILING
        with pytest.raises(SingularModelError, match=r"^inverse verification failed: max \|ZG - I\|"):
            invert_to_impedance(g)

    def test_condition_ceiling_enforced(self):
        assert 1e9 > CONDITION_CEILING
        message = re.escape(f"exceeds ceiling {CONDITION_CEILING:.1e}")
        with pytest.raises(SingularModelError, match=message):
            invert_to_impedance(np.diag([1.0, 1e9]))


class TestModelInvariants:
    @pytest.mark.parametrize("fixture", ["ieee9_model", "ieee118_model"])
    def test_inverse_identity_residual(self, fixture, request):
        model = request.getfixturevalue(fixture)
        g = build_conductance_matrix(request.getfixturevalue(fixture.replace("model", "network")))
        resid = np.abs(model.impedance @ g - np.eye(model.size)).max()
        assert resid < 1e-8

    def test_ieee118_conditioning(self, ieee118_model):
        assert np.isfinite(ieee118_model.condition_estimate)
        z_diag = np.diag(ieee118_model.impedance)
        assert z_diag.min() > 0
        assert z_diag.max() >= z_diag.min()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6))
    def test_row_sums_equal_shunt_conductance(self, seed, m):
        net = random_connected_network(np.random.default_rng(seed), m)
        g = build_conductance_matrix(net)
        shunts = np.zeros(m)
        for b in net.buses:
            if b.shunt_resistance is not None:
                shunts[b.id - 1] = 1.0 / b.shunt_resistance
        assert np.allclose(g.sum(axis=1), shunts, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 6))
    def test_permutation_relabeling_invariance(self, seed, m):
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng, m)
        perm = rng.permutation(m)  # perm[old_index] = new_index
        relabeled = DcNetwork(
            tuple(
                Bus(id=int(perm[b.id - 1]) + 1, shunt_resistance=b.shunt_resistance)
                for b in net.buses
            ),
            tuple(
                Branch(int(perm[br.from_bus - 1]) + 1, int(perm[br.to_bus - 1]) + 1, br.resistance)
                for br in net.branches
            ),
        )
        g = build_conductance_matrix(net)
        g_rel = build_conductance_matrix(relabeled)
        p = np.zeros((m, m))
        p[perm, np.arange(m)] = 1.0
        assert np.allclose(p @ g @ p.T, g_rel, atol=1e-12)
        z = invert_to_impedance(g).impedance
        z_rel = invert_to_impedance(g_rel).impedance
        assert np.allclose(p @ z @ p.T, z_rel, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 6))
    def test_fold_matches_independent_inverse(self, seed, m):
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng, m)
        load_bus = int(rng.integers(1, m + 1))
        load_r = float(rng.uniform(0.5, 3.0))
        loaded = DcNetwork(
            net.buses, net.branches,
            (InjectionDevice(load_bus, "constant_resistance_load", load_r),),
        )
        model = build_impedance_model(loaded)
        # independent oracle: assemble from scratch and solve against identity
        oracle_g = np.zeros((m, m))
        for br in net.branches:
            i, j = br.from_bus - 1, br.to_bus - 1
            oracle_g[i, i] += 1 / br.resistance
            oracle_g[j, j] += 1 / br.resistance
            oracle_g[i, j] -= 1 / br.resistance
            oracle_g[j, i] -= 1 / br.resistance
        for b in net.buses:
            if b.shunt_resistance is not None:
                oracle_g[b.id - 1, b.id - 1] += 1 / b.shunt_resistance
        oracle_g[load_bus - 1, load_bus - 1] += 1 / load_r
        oracle_z = np.linalg.solve(oracle_g, np.eye(m))
        assert np.allclose(model.impedance, oracle_z, rtol=1e-9, atol=1e-12)
