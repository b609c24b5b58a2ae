"""Sparse state estimation and sensor placement for DC microgrids."""

from importlib import resources

from .network import (
    Branch,
    Bus,
    CaseParseError,
    DcNetwork,
    ImpedanceModel,
    InjectionDevice,
    SingularModelError,
    ValidationError,
    build_conductance_matrix,
    build_impedance_model,
    invert_to_impedance,
    load_network,
)
from .recon import (
    MeasurementSet,
    NewtonDivergenceError,
    SolverConfig,
    SparseEstimate,
    apply_current_offsets,
    constant_power_newton,
    estimate_state,
    jacobian_power_rows,
    min_energy,
    solve_bpdn,
)
from .sensing import (
    GramReport,
    PlacementPlan,
    assemble_measurement_matrix,
    gram_coherence,
    greedy_place_sensors,
    random_place_sensors,
    recovery_bound_factor,
)
from .harness import (
    BenchmarkReport,
    CellResult,
    ScenarioSpec,
    TrialResult,
    add_noise,
    default_epsilon,
    eligible_injection_buses,
    run_benchmark,
    run_trial,
    sample_sparse_state,
    simulate_measurements,
)

__version__ = "0.1.0"


def bundled_case_path(name: str):
    """Path to a bundled case file, e.g. 'ieee9.case' or 'ieee118.case'."""
    return resources.files("gridsense").joinpath("data", name)
