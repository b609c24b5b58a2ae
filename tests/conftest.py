"""Shared fixtures and small model builders for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from gridsense import (
    Branch,
    Bus,
    DcNetwork,
    InjectionDevice,
    MeasurementSet,
    ScenarioSpec,
    SparseEstimate,
    ValidationError,
    add_noise,
    build_impedance_model,
    bundled_case_path,
    greedy_place_sensors,
    load_network,
    sample_sparse_state,
    simulate_measurements,
)

TWO_BUS_CASE = """\
gridsense-case v1
[buses]
1 slack
2 load 1.0
[branches]
1 2 1.0
"""


def random_connected_network(rng: np.random.Generator, m: int) -> DcNetwork:
    """Random spanning tree plus one shunt; always valid and invertible."""
    buses = [Bus(id=1)]
    branches = []
    for i in range(2, m + 1):
        parent = int(rng.integers(1, i))
        branches.append(Branch(parent, i, float(rng.uniform(0.2, 5.0))))
        buses.append(Bus(id=i))
    shunt_bus = int(rng.integers(1, m + 1))
    buses[shunt_bus - 1] = Bus(id=shunt_bus, shunt_resistance=float(rng.uniform(0.5, 2.0)))
    return DcNetwork(tuple(buses), tuple(branches))


@pytest.fixture(scope="session")
def two_bus_network():
    return load_network(TWO_BUS_CASE)


@pytest.fixture(scope="session")
def ieee9_network():
    return load_network(bundled_case_path("ieee9.case"))


@pytest.fixture(scope="session")
def ieee9_model(ieee9_network):
    return build_impedance_model(ieee9_network)


# known current sources added to the 9-bus network: bus 2 injects, bus 8 draws
IEEE9_CURRENT_SOURCES = {2: 0.6, 8: -0.4}


@pytest.fixture(scope="session")
def ieee9_current_source_spec(ieee9_network):
    """The 9-bus network with IEEE9_CURRENT_SOURCES: greedy k=7, S=2, sigma=0.01, seed 23."""
    net = DcNetwork(
        ieee9_network.buses, ieee9_network.branches,
        ieee9_network.devices + tuple(
            InjectionDevice(b, "current_source", v) for b, v in IEEE9_CURRENT_SOURCES.items()
        ),
    )
    model = build_impedance_model(net)
    plan = greedy_place_sensors(model, 7)
    return ScenarioSpec(net, model, plan, 2, noise_std=0.01, seed=23)


def trial_snapshot(spec, trial: int) -> MeasurementSet:
    """run_trial's noisy readings for this trial, with the network's current
    sources as known injections."""
    known = {d.bus: d.value for d in spec.network.devices if d.kind == "current_source"}
    i_true = sample_sparse_state(spec.model.size, spec, trial)
    for b, v in known.items():
        i_true[b - 1] = v
    y = simulate_measurements(spec.model, spec.placement, i_true)
    y = add_noise(y, spec.noise_std, spec.seed, trial)
    return MeasurementSet(
        voltage_readings=dict(zip(spec.placement.chosen, y)), known_injections=known,
    )


# the 9-bus greedy plans for 8 and 7 meters
IEEE9_GREEDY8 = (1, 2, 3, 5, 7, 9, 4, 8)
IEEE9_GREEDY7 = IEEE9_GREEDY8[:7]


def ieee9_power_snapshot(model, buses, currents, sources=()) -> MeasurementSet:
    """Noiseless 9-bus snapshot with a constant-power load drawing 1 at bus 5.

    The injections are `currents` (bus -> current) plus the load. Readings
    are taken at `buses` and at the regulated `sources`, and the load's
    constraint is P5 = V5 * I5.
    """
    i_true = np.zeros(model.size)
    for b, val in {**currents, 5: -1.0}.items():
        i_true[b - 1] = val
    v = model.impedance @ i_true
    return MeasurementSet(
        voltage_readings={b: v[b - 1] for b in sorted(set(buses) | set(sources))},
        power_constraints={5: v[4] * i_true[4]},
        voltage_source_buses=frozenset(sources),
    )


# on the greedy-8 plan the refinement diverges; on the greedy-7 plan, with a
# regulated source at bus 8, it converges
IEEE9_DIVERGING_POWER = (IEEE9_GREEDY8, {3: 1.0, 6: -1.0}, ())
IEEE9_CONVERGING_POWER = (IEEE9_GREEDY7, {3: 1.0, 8: 1.0}, (8,))


@pytest.fixture(scope="session")
def ieee118_network():
    return load_network(bundled_case_path("ieee118.case"))


@pytest.fixture(scope="session")
def ieee118_model(ieee118_network):
    return build_impedance_model(ieee118_network)


def solve_l0_oracle(a, y, s_max: int, tol: float) -> SparseEstimate | None:
    """Exhaustive smallest-support solver; the ground-truth oracle for tests.

    Enumerates supports by increasing size (lexicographic within a size) and
    returns the first least-squares fit whose residual is within tol. Guarded
    to desk-scale problems.
    """
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = a.shape
    if m > 25 or s_max > 4:
        raise ValidationError(
            f"l0 oracle limited to M <= 25 columns and S_max <= 4, got M={m}, S_max={s_max}"
        )
    checked = 0
    for size in range(0, s_max + 1):
        for combo in itertools.combinations(range(m), size):
            checked += 1
            if size == 0:
                x_s = np.zeros(0)
                residual = float(np.linalg.norm(y))
            else:
                sub = a[:, combo]
                x_s, *_ = np.linalg.lstsq(sub, y, rcond=None)
                residual = float(np.linalg.norm(sub @ x_s - y))
            if residual <= tol:
                x = np.zeros(m)
                x[list(combo)] = x_s
                return SparseEstimate(
                    injections=x,
                    residual_norm=residual,
                    iterations_used=checked,
                    converged=True,
                )
    return None
