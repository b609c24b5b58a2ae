"""Measurement matrices, mutual coherence, and sensor placement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import CaseParseError, ImpedanceModel, ValidationError, read_sections

PLAN_HEADER = "gridsense-plan v1"
# each plan key and the type of its values
_PLAN_KEYS = {"buses": int, "trace": float, "final_coherence": float}

# columns with norm below this (relative to the largest matrix entry) are
# treated as electrically invisible to the chosen sensors
_ZERO_COL_RTOL = 1e-12

# column pairs of the current Gram on which greedy bounds each candidate's
# objective from below; more pairs prune more but cost O(pairs) per candidate
_BOUND_PAIRS = 64


@dataclass(frozen=True)
class GramReport:
    columns: int
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
        fields: dict[str, tuple] = {}

        def parse_line(_, tok):
            key, *vals = tok
            if key not in _PLAN_KEYS:
                raise ValueError(f"unknown plan key {key!r}")
            if key in fields:
                raise ValueError(f"repeated plan key {key!r}")
            if key == "final_coherence" and len(vals) != 1:
                raise ValueError("expected: final_coherence value")
            fields[key] = tuple(_PLAN_KEYS[key](v) for v in vals)

        read_sections(text, PLAN_HEADER, (), parse_line)
        for key in ("buses", "final_coherence"):
            if key not in fields:
                raise CaseParseError(f"malformed placement plan: missing {key!r}")
        return cls(
            chosen=fields["buses"], objective_trace=fields.get("trace", ()),
            final_coherence=fields["final_coherence"][0],
        )


def assemble_measurement_matrix(
    model: ImpedanceModel,
    sensor_buses,
    candidate_buses=None,
) -> np.ndarray:
    """The voltage-sensor rows of Z over the candidate injection columns (every bus by default)."""
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
    return model.impedance[np.array(sensor_buses) - 1][:, np.array(candidate_buses, dtype=int) - 1]


def gram_coherence(a) -> GramReport:
    """Mutual coherence of `a`, the largest |g| between distinct columns of its
    column-normalized Gram matrix, and its all-zero columns (1-based), which
    the maximum leaves out. A^T A on the column pairs is accumulated row by
    row and the last row scored as the candidate, as greedy placement does,
    so a greedy plan's rows give its trace bit for bit."""
    rows = np.asarray(a, dtype=float)
    if rows.ndim != 2:
        raise ValidationError(f"measurement matrix must be 2-D, got shape {rows.shape}")
    if rows.size == 0:
        raise ValidationError("empty measurement matrix")
    if not np.isfinite(rows).all():
        raise ValidationError("non-finite entries in the measurement matrix")

    m = rows.shape[1]
    zero_tol = _ZERO_COL_RTOL * max(1.0, float(np.abs(rows).max()))
    zero_tol2 = zero_tol * zero_tol
    iu, ju = np.triu_indices(m, 1)
    ata_pairs, norms2 = np.zeros(iu.size), np.zeros(m)
    _add_rows(ata_pairs, norms2, rows[:-1], iu, ju)
    nonzero = norms2 + rows[-1] * rows[-1] > zero_tol2
    if not nonzero.any():
        raise ValidationError("all columns of the measurement matrix are zero")

    mu = float(_pair_coherence(ata_pairs, norms2, rows[-1:], iu, ju, zero_tol2)[0])
    return GramReport(m, mu, tuple((np.flatnonzero(~nonzero) + 1).tolist()))


def _add_rows(ata_pairs, norms2, rows, i, j) -> None:
    """Add `rows`, in order, to A^T A on the pairs (i, j) and to A's squared column norms."""
    for r in rows:
        ata_pairs += r[i] * r[j]
        norms2 += r * r


def _pair_coherence(ata_pairs, norms2, rows, i, j, zero_tol2) -> np.ndarray:
    """Each row's largest normalized |g| on the column pairs (i, j) once it joins A.

    `ata_pairs` and `norms2` hold A^T A on those pairs and A's squared column
    norms, and the row joins with `_add_rows`'s float operations. Pairs
    touching a zero column count as 0; the 1.0 clamp keeps a true cosine
    where rounding lifts a duplicated column's |g| above 1.
    """
    cand_norms2 = norms2 + rows * rows
    nonzero = cand_norms2 > zero_tol2
    safe = np.sqrt(np.where(nonzero, cand_norms2, 1.0))
    # take(.., 1) gathers columns about twice as fast as [:, i]
    g = np.abs(
        (ata_pairs + rows.take(i, 1) * rows.take(j, 1)) / (safe.take(i, 1) * safe.take(j, 1))
    )
    masked = np.where(nonzero.take(i, 1) & nonzero.take(j, 1), g, 0.0)
    return np.minimum(masked.max(axis=1, initial=0.0), 1.0)


def _check_k(m: int, k: int) -> None:
    if not 1 <= k <= m:
        raise ValidationError(f"k={k} out of range 1..{m}")


def greedy_place_sensors(model: ImpedanceModel, k: int) -> PlacementPlan:
    """Greedy voltage-sensor placement minimizing measurement-matrix coherence.

    Each round adds the bus row whose inclusion yields the smallest
    max-norm distance of the normalized Gram matrix from the identity. Ties
    break toward the lowest bus id. The first row is degenerate under this
    objective (every nonzero column normalizes to +-1), so round one picks
    the row observing the most buses instead.

    A^T A is kept only on the column pairs i < j, and `_pair_coherence`
    scores both the objective (all pairs) and a lower bound used to prune
    candidates. Each round takes the `_BOUND_PAIRS` pairs with the largest
    |g| in the current normalized Gram and bounds every candidate on just
    those pairs. That bound is a max over a subset of the very
    floating-point values whose max is the objective, so it never exceeds
    it; a candidate whose bound does not beat the best objective so far
    cannot win, and only the others get the full evaluation. Plans and
    traces are the ones the unpruned search gives, bit for bit.
    """
    m = model.size
    _check_k(m, k)
    z = model.impedance
    zero_tol = _ZERO_COL_RTOL * max(1.0, float(np.abs(z).max()))
    zero_tol2 = zero_tol * zero_tol
    iu, ju = np.triu_indices(m, 1)

    # round one: maximize observability (count of nonzero row entries)
    remaining = list(range(1, m + 1))
    first = max(remaining, key=lambda b: (int((np.abs(z[b - 1]) > zero_tol).sum()), -b))
    remaining.remove(first)
    chosen = [first]
    ata_pairs, norms2 = np.zeros(iu.size), np.zeros(m)
    trace = [float(_pair_coherence(ata_pairs, norms2, z[first - 1 : first], iu, ju, zero_tol2)[0])]
    _add_rows(ata_pairs, norms2, z[first - 1 : first], iu, ju)

    cut = iu.size - min(_BOUND_PAIRS, iu.size)
    for _ in range(1, k):
        safe = np.sqrt(np.where(norms2 > zero_tol2, norms2, 1.0))
        top = np.argpartition(np.abs(ata_pairs / (safe[iu] * safe[ju])), cut)[cut:]
        bounds = _pair_coherence(
            ata_pairs[top], norms2, z[np.array(remaining) - 1], iu[top], ju[top], zero_tol2
        )

        best_bus = None
        best_obj = math.inf
        for b, bound in zip(remaining, bounds):
            if not bound < best_obj - 1e-15:
                continue  # objective >= bound, so b cannot beat best_obj
            obj = float(_pair_coherence(ata_pairs, norms2, z[b - 1 : b], iu, ju, zero_tol2)[0])
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_bus = b
        chosen.append(best_bus)
        remaining.remove(best_bus)
        _add_rows(ata_pairs, norms2, z[best_bus - 1 : best_bus], iu, ju)
        trace.append(best_obj)

    return PlacementPlan(
        chosen=tuple(chosen), objective_trace=tuple(trace), final_coherence=trace[-1]
    )


def random_sensor_buses(m: int, k: int, seed: int) -> tuple[int, ...]:
    """k of the m buses, uniform without replacement, sorted."""
    _check_k(m, k)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    picked = np.random.default_rng(seed).choice(m, size=k, replace=False)
    return tuple(sorted(int(i) + 1 for i in picked))


def random_place_sensors(model: ImpedanceModel, k: int, seed: int) -> PlacementPlan:
    """Uniform sensor placement without replacement, reproducible from the seed."""
    chosen = random_sensor_buses(model.size, k, seed)
    coh = gram_coherence(assemble_measurement_matrix(model, chosen)).mutual_coherence
    return PlacementPlan(chosen=chosen, objective_trace=(coh,), final_coherence=coh)


def recovery_bound_factor(report: GramReport, sparsity: int) -> float:
    """Advisory mu^2 * S * ln(signal dimension) factor; the constant in front
    of the classical recovery bound is unknown, so no pass/fail verdict."""
    if sparsity < 1:
        raise ValidationError("sparsity must be >= 1")
    mu = report.mutual_coherence
    return mu * mu * sparsity * math.log(report.columns)
