"""Measurement matrices, mutual coherence, and sensor placement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import CaseParseError, ImpedanceModel, ValidationError

PLAN_HEADER = "gridsense-plan v1"

# columns with norm below this (relative to the largest matrix entry) are
# treated as electrically invisible to the chosen sensors
_ZERO_COL_RTOL = 1e-12

# column pairs of the current Gram on which greedy bounds each candidate's
# objective from below; more pairs prune more but cost O(pairs) per candidate
_BOUND_PAIRS = 64


@dataclass(frozen=True)
class MeasurementMatrix:
    rows: np.ndarray
    sensor_buses: tuple[int, ...]
    candidate_buses: tuple[int, ...]

    @property
    def n_sensors(self) -> int:
        return self.rows.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class GramReport:
    gram: np.ndarray
    max_offdiag: float
    mutual_coherence: float
    zero_columns: tuple[int, ...]


@dataclass(frozen=True)
class PlacementPlan:
    chosen: tuple[int, ...]
    objective_trace: tuple[float, ...]
    final_coherence: float

    def to_text(self) -> str:
        lines = [
            PLAN_HEADER,
            "buses " + " ".join(str(b) for b in self.chosen),
            "trace " + " ".join(f"{v:.12g}" for v in self.objective_trace),
            f"final_coherence {self.final_coherence:.12g}",
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PlacementPlan":
        fields: dict[str, list[str]] = {}
        lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
        if not lines or lines[0] != PLAN_HEADER:
            raise CaseParseError(f"missing header line {PLAN_HEADER!r}")
        for ln in lines[1:]:
            key, *vals = ln.split()
            fields[key] = vals
        try:
            chosen = tuple(int(v) for v in fields["buses"])
            trace = tuple(float(v) for v in fields.get("trace", []))
            final = float(fields["final_coherence"][0])
        except (KeyError, IndexError, ValueError) as exc:
            raise CaseParseError(f"malformed placement plan: {exc}") from None
        return cls(chosen=chosen, objective_trace=trace, final_coherence=final)


@dataclass(frozen=True)
class RecoveryBoundReport:
    mu: float
    sparsity: int
    signal_dim: int
    bound_factor: float
    sensors_available: int


def assemble_measurement_matrix(
    model: ImpedanceModel,
    sensor_buses,
    candidate_buses=None,
) -> MeasurementMatrix:
    """Select the voltage-sensor rows of Z over the candidate injection columns."""
    m = model.size
    sensor_buses = tuple(sensor_buses)
    if candidate_buses is None:
        candidate_buses = tuple(range(1, m + 1))
    else:
        candidate_buses = tuple(candidate_buses)
    if not sensor_buses:
        raise ValidationError("no sensor buses")
    if len(set(sensor_buses)) != len(sensor_buses):
        raise ValidationError(f"duplicate sensor buses in {sensor_buses}")
    for b in sensor_buses + candidate_buses:
        if not 1 <= b <= m:
            raise ValidationError(f"unknown bus id {b}")
    rows = model.impedance[np.array(sensor_buses) - 1][:, np.array(candidate_buses, dtype=int) - 1]
    return MeasurementMatrix(rows=rows, sensor_buses=sensor_buses, candidate_buses=candidate_buses)


def gram_coherence(a: MeasurementMatrix | np.ndarray) -> GramReport:
    """Gram matrix of the column-normalized measurement matrix and its coherence.

    Coherence is the largest off-diagonal magnitude of the normalized Gram
    matrix; all-zero columns cannot be normalized, so they are excluded from
    the maximum and reported separately.
    """
    if isinstance(a, MeasurementMatrix):
        rows = a.rows
        candidates = a.candidate_buses
    else:
        rows = np.asarray(a, dtype=float)
        candidates = tuple(range(1, rows.shape[1] + 1))
    if rows.size == 0:
        raise ValidationError("empty measurement matrix")

    norms = np.linalg.norm(rows, axis=0)
    zero_tol = _ZERO_COL_RTOL * max(1.0, float(np.abs(rows).max()))
    nonzero = norms > zero_tol
    if not nonzero.any():
        raise ValidationError("all columns of the measurement matrix are zero")

    safe = np.where(nonzero, norms, 1.0)
    normalized = rows / safe
    gram = normalized.T @ normalized

    max_off = _max_offdiag(gram, nonzero)
    zero_cols = tuple(candidates[i] for i in np.flatnonzero(~nonzero))
    return GramReport(
        gram=gram, max_offdiag=max_off, mutual_coherence=max_off, zero_columns=zero_cols
    )


def _max_offdiag(gram: np.ndarray, nonzero: np.ndarray) -> float:
    """Largest off-diagonal |g| between nonzero columns of a normalized Gram."""
    mask = np.outer(nonzero, nonzero)
    np.fill_diagonal(mask, False)
    # normalized inner products exceed 1 only through rounding; clamp so the
    # coherence stays a true cosine even for duplicated columns
    return min(float(np.abs(gram[mask]).max()), 1.0) if mask.any() else 0.0


def _coherence_from_gram(ata: np.ndarray, norms2: np.ndarray, zero_tol: float) -> float:
    nonzero = norms2 > zero_tol * zero_tol
    safe = np.sqrt(np.where(nonzero, norms2, 1.0))
    return _max_offdiag(ata / np.outer(safe, safe), nonzero)


def _candidate_buses(m: int, k: int, candidate_sensor_buses) -> tuple[int, ...]:
    """Candidate sensor buses (every bus by default), checked against m and k."""
    if candidate_sensor_buses is None:
        candidates = tuple(range(1, m + 1))
    else:
        candidates = tuple(candidate_sensor_buses)
    for b in candidates:
        if not 1 <= b <= m:
            raise ValidationError(f"unknown bus id {b}")
    if not 1 <= k <= len(candidates):
        raise ValidationError(f"k={k} out of range 1..{len(candidates)}")
    return candidates


def greedy_place_sensors(
    model: ImpedanceModel,
    k: int,
    candidate_sensor_buses=None,
) -> PlacementPlan:
    """Greedy voltage-sensor placement minimizing measurement-matrix coherence.

    Each round adds the candidate row whose inclusion yields the smallest
    max-norm distance of the normalized Gram matrix from the identity. Ties
    break toward the lowest bus id. The first row is degenerate under this
    objective (every nonzero column normalizes to +-1), so round one picks
    the row observing the most buses instead.

    Candidates are pruned with a lower bound. Each round takes the
    `_BOUND_PAIRS` column pairs with the largest |g| in the current
    normalized Gram and, for every candidate at once, evaluates the Gram
    entries it would give on just those pairs, with the objective's own
    element formula, zero-column test and 1.0 clamp. That bound is a max
    over a subset of the very floating-point values whose max is the
    objective, so it never exceeds it; a candidate whose bound does not
    beat the best objective so far cannot win, and only the others get the
    full O(M^2) evaluation. Plans and traces are the ones the unpruned
    search gives, bit for bit.
    """
    m = model.size
    candidates = _candidate_buses(m, k, candidate_sensor_buses)
    z = model.impedance
    zero_tol = _ZERO_COL_RTOL * max(1.0, float(np.abs(z).max()))
    zero_tol2 = zero_tol * zero_tol

    remaining = sorted(set(candidates))
    if len(remaining) != len(candidates):
        raise ValidationError("duplicate candidate sensor buses")

    chosen: list[int] = []
    trace: list[float] = []

    # round one: maximize observability (count of nonzero row entries)
    first = max(remaining, key=lambda b: (int((np.abs(z[b - 1]) > zero_tol).sum()), -b))
    chosen.append(first)
    remaining.remove(first)

    # incremental Gram update: adding row a maps A^T A -> A^T A + a a^T and
    # squared column norms -> norms2 + a^2, so each candidate costs O(M^2)
    a0 = z[first - 1]
    ata = np.outer(a0, a0)
    norms2 = a0 * a0
    trace.append(_coherence_from_gram(ata, norms2, zero_tol))

    iu, ju = np.triu_indices(m, 1)
    cut = iu.size - min(_BOUND_PAIRS, iu.size)
    for _ in range(1, k):
        # lower bounds: each candidate's Gram entries on the current largest pairs
        safe = np.sqrt(np.where(norms2 > zero_tol2, norms2, 1.0))
        top = np.argpartition(np.abs(ata[iu, ju] / (safe[iu] * safe[ju])), cut)[cut:]
        i, j = iu[top], ju[top]
        rows = z[np.array(remaining) - 1]
        cand_norms2 = norms2 + rows * rows
        nonzero = cand_norms2 > zero_tol2
        cand_safe = np.sqrt(np.where(nonzero, cand_norms2, 1.0))
        pair_g = np.abs(
            (ata[i, j] + rows[:, i] * rows[:, j]) / (cand_safe[:, i] * cand_safe[:, j])
        )
        masked = np.where(nonzero[:, i] & nonzero[:, j], pair_g, 0.0)
        bounds = np.minimum(masked.max(axis=1), 1.0)

        best_bus = None
        best_obj = math.inf
        for b, bound in zip(remaining, bounds):
            if not bound < best_obj - 1e-15:
                continue  # objective >= bound, so b cannot beat best_obj
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


def random_place_sensors(
    model: ImpedanceModel, k: int, seed: int, candidate_sensor_buses=None
) -> PlacementPlan:
    """Uniform sensor placement without replacement, reproducible from the seed."""
    candidate_sensor_buses = _candidate_buses(model.size, k, candidate_sensor_buses)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(candidate_sensor_buses), size=k, replace=False)
    chosen = tuple(sorted(candidate_sensor_buses[i] for i in picked))
    coh = gram_coherence(assemble_measurement_matrix(model, chosen)).mutual_coherence
    return PlacementPlan(chosen=chosen, objective_trace=(coh,), final_coherence=coh)


def recovery_bound_report(
    report: GramReport, sparsity: int, sensors_available: int
) -> RecoveryBoundReport:
    """Advisory mu^2 * S * ln(signal dimension) factor; the constant in front
    of the classical recovery bound is unknown, so no pass/fail verdict."""
    if sparsity < 1:
        raise ValidationError("sparsity must be >= 1")
    signal_dim = report.gram.shape[0]
    mu = report.mutual_coherence
    return RecoveryBoundReport(
        mu=mu,
        sparsity=sparsity,
        signal_dim=signal_dim,
        bound_factor=mu * mu * sparsity * math.log(signal_dim),
        sensors_available=sensors_available,
    )
