"""Monte Carlo benchmark engine: sample states, simulate meters, score estimators."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .network import DcNetwork, ImpedanceModel, ValidationError
from .recon import MeasurementSystem, SolverConfig
# not called here; kept importable from this module for callers that look
# them up by these names (bench/tracing.py)
from .recon import estimate_state, min_energy  # noqa: F401
from .sensing import random_place_sensors  # noqa: F401
from .sensing import PlacementPlan, assemble_measurement_matrix, greedy_place_sensors
from .sensing import random_sensor_buses

ESTIMATORS = ("cs", "min_energy")

SUCCESS_THRESHOLD = 0.05  # max per-bus error relative to the largest true injection
# each sampled injection's magnitude in p.u., drawn uniformly; its sign is +-1 at random
INJECTION_RANGE = (0.5, 1.5)
_SIGNS = np.array([-1.0, 1.0])
# a random-placement cell averages over this many placements, or one per trial if fewer
RANDOM_PLACEMENTS = 100


@dataclass(frozen=True)
class ScenarioSpec:
    network: DcNetwork
    model: ImpedanceModel
    placement: PlacementPlan
    sparsity: int
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_sparsity_and_noise(self.model.size, self.sparsity, self.noise_std)


def _check_sparsity_and_noise(m: int, sparsity: int, noise_std: float) -> None:
    if not 1 <= sparsity <= m:
        raise ValidationError(f"sparsity must be in 1..{m}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValidationError(f"noise_std must be finite and >= 0, got {noise_std}")


@dataclass(frozen=True)
class TrialResult:
    true_injections: np.ndarray
    estimated_injections: np.ndarray
    max_relative_error: float
    rmse: float
    success: bool
    # the BPDN estimate's route and convergence; "" and True for min_energy
    route: str
    converged: bool


@dataclass(frozen=True)
class CellResult:
    sparsity: int
    meters: int
    placement: str
    estimator: str
    noise_std: float
    reconstruction_ratio: float
    mean_rmse: float
    trials: int
    seed: int


@dataclass(frozen=True)
class BenchmarkReport:
    cells: tuple[CellResult, ...]
    seed: int
    trials: int
    model_id: str

    _CSV_FIELDS = (
        "sparsity", "meters", "placement", "estimator", "noise_std",
        "reconstruction_ratio", "mean_rmse", "trials", "seed",
    )

    def to_csv_text(self) -> str:
        lines = [",".join(self._CSV_FIELDS)]
        for c in self.cells:
            lines.append(
                f"{c.sparsity},{c.meters},{c.placement},{c.estimator},"
                f"{c.noise_std:.10g},{c.reconstruction_ratio:.10g},"
                f"{c.mean_rmse:.10g},{c.trials},{c.seed}"
            )
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        payload = {
            "model_id": self.model_id,
            "seed": self.seed,
            "trials": self.trials,
            "cells": [
                {f: getattr(c, f) for f in self._CSV_FIELDS} for c in self.cells
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_table_text(self) -> str:
        header = (
            f"{'S':>3} {'meters':>6} {'placement':>9} {'estimator':>10} "
            f"{'noise':>8} {'ratio':>8} {'rmse':>10}"
        )
        lines = [f"benchmark: {self.model_id} seed={self.seed} trials/cell={self.trials}", header]
        for c in self.cells:
            lines.append(
                f"{c.sparsity:>3} {c.meters:>6} {c.placement:>9} {c.estimator:>10} "
                f"{c.noise_std:>8.4g} {c.reconstruction_ratio:>8.4f} {c.mean_rmse:>10.4e}"
            )
        return "\n".join(lines) + "\n"

    def to_plot_text(self) -> str:
        """One (x, y) series per non-sparsity cell signature, for external plotting."""
        lines = ["# series x=sparsity y=reconstruction_ratio y2=mean_rmse"]
        for c in self.cells:
            series = f"{c.placement}/{c.estimator}/m{c.meters}/n{c.noise_std:.10g}"
            lines.append(
                f"{series} {c.sparsity} {c.reconstruction_ratio:.10g} {c.mean_rmse:.10g}"
            )
        return "\n".join(lines) + "\n"


def eligible_injection_buses(network: DcNetwork) -> list[int]:
    """Buses whose injection is an unknown: no device with a known value."""
    known_kinds = {"current_source", "voltage_source", "constant_power"}
    fixed = {d.bus for d in network.devices if d.kind in known_kinds}
    return [b.id for b in network.buses if b.id not in fixed]


def sample_sparse_state(m: int, spec: ScenarioSpec, trial_index: int) -> np.ndarray:
    """Random S-sparse injection vector, deterministic in (seed, trial_index)."""
    eligible = _eligible_for(spec.network, spec.sparsity)
    return _draw_states(m, spec.seed, spec.sparsity, eligible, [trial_index])[0]


def _eligible_for(network: DcNetwork, sparsity: int) -> list[int]:
    eligible = eligible_injection_buses(network)
    if sparsity > len(eligible):
        raise ValidationError(f"sparsity {sparsity} exceeds the {len(eligible)} eligible buses")
    return eligible


def _draw_states(m, seed, sparsity, eligible, trials) -> np.ndarray:
    """Row i is trial trials[i]'s state, drawn from that trial's own stream."""
    columns = np.array(eligible) - 1
    states = np.zeros((len(trials), m))
    for x, t in zip(states, trials):
        rng = np.random.default_rng((seed, t, 0))
        support = columns[rng.choice(len(columns), size=sparsity, replace=False)]
        magnitudes = rng.uniform(*INJECTION_RANGE, sparsity)
        x[support] = rng.choice(_SIGNS, size=sparsity) * magnitudes
    return states


def simulate_measurements(model: ImpedanceModel, plan: PlacementPlan, i_true) -> np.ndarray:
    """Exact meter readings y = Z_sel I for the plan's voltage sensors."""
    i_true = np.asarray(i_true, dtype=float)
    rows = model.impedance[np.array(plan.chosen) - 1]
    return rows @ i_true


def add_noise(y, noise_std: float, seed: int, trial_index: int) -> np.ndarray:
    """Additive zero-mean Gaussian meter error in absolute p.u."""
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ValidationError(f"noise_std must be finite and >= 0, got {noise_std}")
    y = np.asarray(y, dtype=float)
    if noise_std == 0:
        return y.copy()
    rng = np.random.default_rng((seed, trial_index, 1))
    return y + rng.normal(0.0, noise_std, size=y.shape)


def default_epsilon(noise_std: float, n_meters: int) -> float:
    """Default BPDN residual radius for a given meter noise level.

    Half the expected noise norm: tighter radii track the measurements more
    closely, and the factor 0.5 gave the best sparse-recovery accuracy across
    noise levels in calibration sweeps on the bundled 9-bus model.
    """
    return 0.5 * noise_std * math.sqrt(n_meters)


def run_trial(
    spec: ScenarioSpec,
    estimator: str,
    trial_index: int,
    cfg: SolverConfig | None = None,
) -> TrialResult:
    """sample -> simulate -> noise -> estimate -> score, for one trial: a
    benchmark cell of that one trial on the spec's plan."""
    states, estimates, max_rel, rmse, [(route, converged)] = _run_cell(
        spec.network, spec.model, spec.sparsity, spec.noise_std, spec.seed, estimator, cfg,
        [(spec.placement.chosen, [trial_index])])
    return TrialResult(states[0], estimates[0], float(max_rel[0]), float(rmse[0]),
                       bool(max_rel[0] < SUCCESS_THRESHOLD), route, converged)


def _check_trials(network, model, sparsity, noise_std, estimator) -> list[int]:
    """Raise on a scenario whose trials cannot run; else return its eligible buses."""
    _check_sparsity_and_noise(model.size, sparsity, noise_std)
    if estimator not in ESTIMATORS:
        raise ValidationError(f"estimator must be one of {ESTIMATORS}")
    unsupported = sorted({d.kind for d in network.devices} & {"voltage_source", "constant_power"})
    if unsupported:
        raise ValidationError(
            f"benchmark scenarios support current sources and resistance loads only, "
            f"found {unsupported}"
        )
    return _eligible_for(network, sparsity)


def _run_cell(network, model, sparsity, noise_std, seed, estimator, cfg, blocks):
    """A cell's trials as arrays: draw every state, solve per trial, score once.

    `blocks` lists (plan buses, trial indices); row i of each returned array
    is the i-th of those trials. Returns the true and estimated states, each
    trial's max relative error and RMSE, and its (route, converged).
    """
    eligible = _check_trials(network, model, sparsity, noise_std, estimator)
    known = {d.bus: d.value for d in network.devices if d.kind == "current_source"}
    trials = [t for _, block in blocks for t in block]
    states = _draw_states(model.size, seed, sparsity, eligible, trials)
    for b, val in known.items():
        states[:, b - 1] = val

    cs = estimator == "cs"
    if cs and cfg is None:
        cfg = SolverConfig(epsilon=default_epsilon(noise_std, len(blocks[0][0])))
    # each distinct plan: a `recon.MeasurementSystem` (`cs` on the rows in
    # ascending bus order, as `estimate_state` builds it, so the LP takes the
    # same pivots), its Z rows in plan order, in which the readings are
    # simulated, and the reading order; dropped after the plan's last block
    last_block = {chosen: p for p, (chosen, _) in enumerate(blocks)}
    systems = {}
    estimates = np.empty_like(states)
    outcomes = []
    for p, (chosen, block) in enumerate(blocks):
        if chosen not in systems:
            # the system rejects bus ids outside the model and repeated buses
            systems[chosen] = (MeasurementSystem(model, sorted(chosen) if cs else chosen, known),
                               model.impedance[np.array(chosen) - 1],
                               np.argsort(chosen) if cs else slice(None))
        system = systems.pop(chosen) if last_block[chosen] == p else systems[chosen]
        rows = slice(len(outcomes), len(outcomes) + len(block))
        outcomes += _solve_block(system, cfg if cs else None, noise_std, seed, block,
                                 states[rows], estimates[rows])

    err = estimates - states
    max_rel = np.abs(err).max(axis=1) / np.abs(states).max(axis=1)
    rmse = np.sqrt(np.mean(err**2, axis=1))
    return states, estimates, max_rel, rmse, outcomes


def _solve_block(plan_system, cfg, noise_std, seed, trials, states, estimates):
    """Estimate trials[i]'s noisy readings of states[i] into estimates[i], on one
    plan's system; min_energy when `cfg` is None. Returns each trial's
    (route, converged), ("", True) for min_energy."""
    system, rows, order = plan_system
    outcomes = []
    for t, x, out in zip(trials, states, estimates):
        y = add_noise(rows @ x, noise_std, seed, t)[order]
        if cfg is None:
            out[:] = system.min_energy(y)
            outcomes.append(("", True))
        else:
            est = system.bpdn(y, cfg)
            out[:] = est.injections
            outcomes.append((est.route, est.converged))
    return outcomes


def _cell_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def run_benchmark(
    network: DcNetwork,
    model: ImpedanceModel,
    cells,
    trials: int,
    seed: int,
    threads: int = 1,
    model_id: str = "",
    epsilon: float | None = None,
) -> BenchmarkReport:
    """Fill a benchmark grid; deterministic in (cells, trials, seed).

    Each cell is a (sparsity, meters, placement, estimator, noise_std) tuple,
    and every cell is checked before the first trial runs. Random-placement
    cells average over `RANDOM_PLACEMENTS` placements (at most one per
    trial); trial t runs on placement t * n_placements // trials, so every
    requested trial runs and the placements share them as evenly as the
    counts allow. When `epsilon` is given it overrides the noise-derived
    BPDN radius in every cell. A cell runs in three passes: draw every
    trial's state, each from its own stream, into one trials x m array;
    solve trial by trial, block by plan block (`_solve_block`), into a
    second; score with row-wise reductions. A cell keeps its trials as rows
    of those two arrays, not as result objects. Trials run serially;
    `threads` is ignored.
    """
    cfg = None if epsilon is None else SolverConfig(epsilon=epsilon)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    cells = [_normalize_cell(network, model, c) for c in cells]
    if not cells:
        raise ValidationError("benchmark grid is empty")
    results = []
    greedy_cache: dict[int, PlacementPlan] = {}
    for idx, (sparsity, meters, placement, estimator, noise_std) in enumerate(cells):
        cseed = _cell_seed(seed, idx)
        if isinstance(placement, PlacementPlan):
            plans, placement = [placement.chosen], "file"
        elif placement == "greedy":
            if meters not in greedy_cache:
                greedy_cache[meters] = greedy_place_sensors(model, meters)
            plans = [greedy_cache[meters].chosen]
        else:
            # random_place_sensors's buses, without its coherence, which no cell reads
            plans = [
                random_sensor_buses(model.size, meters, _cell_seed(cseed, p + 1))
                for p in range(min(RANDOM_PLACEMENTS, trials))
            ]

        # trial t runs on plan t * n_plans // trials: consecutive blocks of
        # trials // n_plans or one more, covering every requested trial
        blocks = [
            (plans[p], list(block))
            for p, block in itertools.groupby(range(trials), lambda t: t * len(plans) // trials)
        ]
        max_rel, rmse = _run_cell(
            network, model, sparsity, noise_std, cseed, estimator, cfg, blocks)[2:4]
        results.append(
            CellResult(
                sparsity=sparsity, meters=meters, placement=placement,
                estimator=estimator, noise_std=noise_std,
                reconstruction_ratio=int(np.count_nonzero(max_rel < SUCCESS_THRESHOLD)) / trials,
                mean_rmse=float(np.mean(rmse)),
                trials=trials, seed=cseed,
            )
        )
    return BenchmarkReport(
        cells=tuple(results), seed=seed, trials=trials, model_id=model_id
    )


def _normalize_cell(network, model, cell):
    """The cell as plain values; raises on any cell whose trials cannot run."""
    sparsity, meters, placement, estimator, noise_std = cell
    sparsity, meters, noise_std = int(sparsity), int(meters), float(noise_std)
    estimator = str(estimator)
    if isinstance(placement, PlacementPlan):
        if meters != len(placement.chosen):
            raise ValidationError(
                f"cell has {meters} meters but its placement plan has {len(placement.chosen)}"
            )
        # the bus ids the cell's measurement system would reject
        assemble_measurement_matrix(model, placement.chosen)
    elif str(placement) not in ("greedy", "random"):
        raise ValidationError(f"unknown placement method {placement!r}")
    elif not 1 <= meters <= model.size:
        raise ValidationError(f"meters must be in 1..{model.size}, got {meters}")
    else:
        placement = str(placement)
    _check_trials(network, model, sparsity, noise_std, estimator)
    return sparsity, meters, placement, estimator, noise_std
