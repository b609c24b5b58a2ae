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
from .sensing import PlacementPlan, greedy_place_sensors, random_place_sensors

ESTIMATORS = ("cs", "min_energy")

SUCCESS_THRESHOLD = 0.05  # max per-bus error relative to the largest true injection
# each sampled injection's magnitude in p.u., drawn uniformly; its sign is +-1 at random
INJECTION_RANGE = (0.5, 1.5)
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
        m = self.model.size
        if not 1 <= self.sparsity <= m:
            raise ValidationError(f"sparsity must be in 1..{m}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValidationError(f"noise_std must be finite and >= 0, got {self.noise_std}")


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
    return _draw_sparse_state(m, spec, _eligible_for(spec), trial_index)


def _eligible_for(spec: ScenarioSpec) -> list[int]:
    eligible = eligible_injection_buses(spec.network)
    if spec.sparsity > len(eligible):
        raise ValidationError(
            f"sparsity {spec.sparsity} exceeds the {len(eligible)} eligible buses"
        )
    return eligible


def _draw_sparse_state(m, spec, eligible, trial_index) -> np.ndarray:
    rng = np.random.default_rng((spec.seed, trial_index, 0))
    support = rng.choice(len(eligible), size=spec.sparsity, replace=False)
    magnitudes = rng.uniform(*INJECTION_RANGE, spec.sparsity)
    signs = rng.choice([-1.0, 1.0], size=spec.sparsity)
    x = np.zeros(m)
    for idx, mag, sign in zip(support, magnitudes, signs):
        x[eligible[idx] - 1] = sign * mag
    return x


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
    """sample -> simulate -> noise -> estimate -> score, for one trial."""
    return _TrialContext(spec, estimator, cfg).run(trial_index)


class _TrialContext:
    """What is fixed for a scenario and estimator; `run(t)` does trial t's part.

    Holds the checks, the fixed injections, the eligible buses, the plan's
    Z rows in plan order (to simulate the readings) and a
    `recon.MeasurementSystem`, which offsets the fixed injections, solves
    and scatters the estimate back. `cs` builds it on the rows in ascending
    bus order, as `estimate_state` does for the same snapshot, so the LP
    sees the same matrix and takes the same pivots; `min_energy` on the rows
    in plan order.
    """

    def __init__(self, spec: ScenarioSpec, estimator: str, cfg: SolverConfig | None):
        if estimator not in ESTIMATORS:
            raise ValidationError(f"estimator must be one of {ESTIMATORS}")
        unsupported = [
            d.kind for d in spec.network.devices
            if d.kind in ("voltage_source", "constant_power")
        ]
        if unsupported:
            raise ValidationError(
                f"benchmark scenarios support current sources and resistance loads only, "
                f"found {sorted(set(unsupported))}"
            )
        self.spec = spec
        self.fixed = {
            d.bus: d.value for d in spec.network.devices if d.kind == "current_source"
        }
        self.eligible = _eligible_for(spec)
        chosen = spec.placement.chosen
        cs = estimator == "cs"
        # built first: it rejects bus ids outside the model and repeated buses
        self.system = MeasurementSystem(spec.model, sorted(chosen) if cs else chosen, self.fixed)
        # in plan order: the readings are simulated in this order
        self.rows = spec.model.impedance[np.array(chosen) - 1]
        self.order = np.argsort(chosen) if cs else slice(None)
        if cs and cfg is None:
            cfg = SolverConfig(epsilon=default_epsilon(spec.noise_std, len(chosen)))
        self.cfg = cfg if cs else None

    def run(self, trial_index: int) -> TrialResult:
        spec = self.spec
        i_true = _draw_sparse_state(spec.model.size, spec, self.eligible, trial_index)
        for b, val in self.fixed.items():
            i_true[b - 1] = val
        y = add_noise(self.rows @ i_true, spec.noise_std, spec.seed, trial_index)[self.order]
        if self.cfg is not None:
            est = self.system.bpdn(y, self.cfg)
            estimate, route, converged = est.injections, est.route, est.converged
        else:
            estimate = self.system.min_energy(y)
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

    Each cell is a (sparsity, meters, placement, estimator, noise_std) tuple.
    Random-placement cells average over `RANDOM_PLACEMENTS` placements (at
    most one per trial); trial t runs on placement t * n_placements // trials,
    so every requested trial runs and the placements share them as evenly as
    the counts allow. When `epsilon` is given it overrides the noise-derived
    BPDN radius in every cell.
    Trials run serially; `threads` is accepted for compatibility and ignored.
    """
    cfg = None if epsilon is None else SolverConfig(epsilon=epsilon)
    cells = [_normalize_cell(c) for c in cells]
    if not cells:
        raise ValidationError("benchmark grid is empty")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    results = []
    greedy_cache: dict[int, PlacementPlan] = {}
    for idx, (sparsity, meters, placement, estimator, noise_std) in enumerate(cells):
        cseed = _cell_seed(seed, idx)
        if isinstance(placement, PlacementPlan):
            plans = [placement]
            placement = "file"
        elif placement == "greedy":
            if meters not in greedy_cache:
                greedy_cache[meters] = greedy_place_sensors(model, meters)
            plans = [greedy_cache[meters]]
        elif placement == "random":
            plans = [
                random_place_sensors(model, meters, seed=_cell_seed(cseed, p + 1))
                for p in range(min(RANDOM_PLACEMENTS, trials))
            ]
        else:
            raise ValidationError(f"unknown placement method {placement!r}")

        # trial t runs on plan t * n_plans // trials: consecutive blocks of
        # trials // n_plans or one more, covering every requested trial.
        # Random plans repeat (their buses are sorted), so a distinct plan's
        # context serves all its blocks, and is dropped after its last one
        last_block = {plan: p for p, plan in enumerate(plans)}
        contexts: dict[PlacementPlan, _TrialContext] = {}
        trial_results = []
        for p, block in itertools.groupby(range(trials), lambda t: t * len(plans) // trials):
            plan = plans[p]
            if plan not in contexts:
                spec = ScenarioSpec(
                    network=network, model=model, placement=plan, sparsity=sparsity,
                    noise_std=noise_std, seed=cseed,
                )
                contexts[plan] = _TrialContext(spec, estimator, cfg)
            context = contexts.pop(plan) if last_block[plan] == p else contexts[plan]
            trial_results += [context.run(t) for t in block]

        n = len(trial_results)
        ratio = sum(1 for r in trial_results if r.success) / n
        mean_rmse = float(np.mean([r.rmse for r in trial_results]))
        results.append(
            CellResult(
                sparsity=sparsity, meters=meters, placement=placement,
                estimator=estimator, noise_std=noise_std,
                reconstruction_ratio=ratio, mean_rmse=mean_rmse,
                trials=n, seed=cseed,
            )
        )
    return BenchmarkReport(
        cells=tuple(results), seed=seed, trials=trials, model_id=model_id
    )


def _normalize_cell(cell):
    sparsity, meters, placement, estimator, noise_std = cell
    if isinstance(placement, PlacementPlan):
        if int(meters) != len(placement.chosen):
            raise ValidationError(
                f"cell has {meters} meters but its placement plan has {len(placement.chosen)}"
            )
    else:
        placement = str(placement)
    return int(sparsity), int(meters), placement, str(estimator), float(noise_std)
