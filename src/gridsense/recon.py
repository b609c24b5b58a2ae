"""Sparse reconstruction of injection currents from measurement snapshots."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .network import ImpedanceModel, ValidationError, read_sections
from .sensing import PlacementPlan, assemble_measurement_matrix

SNAPSHOT_HEADER = "gridsense-snapshot v1"
SNAPSHOT_SECTIONS = ("voltages", "known_injections", "power_constraints", "voltage_sources")

# entries below this fraction of the largest estimate are reported as zero
SUPPORT_THRESHOLD_REL = 1e-6

# each thread's HiGHS solver, the bindings module and the LP arrays whose
# model the solver holds, set by _highs_solver and _solve_bp_lp
_HIGHS = threading.local()
# the bindings' module name, and the lock under which _highs_core loads them
_HIGHS_CORE = "scipy.optimize._highspy._core"
_HIGHS_CORE_LOCK = threading.Lock()

# how many MeasurementSystems estimate_state keeps
_SYSTEMS_KEPT = 16


class NewtonDivergenceError(RuntimeError):
    """Constant-power refinement failed; carries the last iterate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class SolverConfig:
    """The BPDN radius epsilon; the tolerances and the Newton limit are class constants.

    convergence_tol sets the BPDN solve's ftol = convergence_tol * max(1, ||y||);
    newton_max_iter and newton_tol bound the constant-power refinement.
    """

    epsilon: float = 0.0
    convergence_tol: ClassVar[float] = 1e-7
    newton_max_iter: ClassVar[int] = 50
    newton_tol: ClassVar[float] = 1e-10

    def __post_init__(self):
        # written so that NaN fails too; an infinite radius would pass the
        # all-zero estimate off as a converged answer
        if not 0 <= self.epsilon < math.inf:
            raise ValidationError(f"epsilon must be >= 0 and finite, got {self.epsilon}")


@dataclass(frozen=True)
class MeasurementSet:
    voltage_readings: dict[int, float] = field(default_factory=dict)
    known_injections: dict[int, float] = field(default_factory=dict)
    power_constraints: dict[int, float] = field(default_factory=dict)
    voltage_source_buses: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "voltage_source_buses", frozenset(self.voltage_source_buses))
        overlap = set(self.power_constraints) & set(self.known_injections)
        if overlap:
            raise ValidationError(
                f"buses {sorted(overlap)} have both a power constraint and a known injection"
            )

    def to_text(self) -> str:
        lines = [SNAPSHOT_HEADER]
        for section, mapping in (
            ("voltages", self.voltage_readings),
            ("known_injections", self.known_injections),
            ("power_constraints", self.power_constraints),
        ):
            if mapping:
                lines.append(f"[{section}]")
                lines.extend(f"{b} {v:.12g}" for b, v in sorted(mapping.items()))
        if self.voltage_source_buses:
            lines.append("[voltage_sources]")
            lines.extend(str(b) for b in sorted(self.voltage_source_buses))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MeasurementSet":
        sections = {name: {} for name in SNAPSHOT_SECTIONS}

        def parse_line(section, tok):
            values = sections[section]
            if section == "voltage_sources":
                if len(tok) != 1:
                    raise ValueError("expected a single bus id")
            elif len(tok) != 2:
                raise ValueError("expected: bus value")
            bus = int(tok[0])
            if bus in values:
                raise ValueError(f"bus {bus} appears twice in [{section}]")
            values[bus] = float(tok[1]) if len(tok) == 2 else None

        read_sections(text, SNAPSHOT_HEADER, SNAPSHOT_SECTIONS, parse_line)
        return cls(
            voltage_readings=sections["voltages"],
            known_injections=sections["known_injections"],
            power_constraints=sections["power_constraints"],
            voltage_source_buses=frozenset(sections["voltage_sources"]),
        )


@dataclass(frozen=True)
class SparseEstimate:
    injections: np.ndarray
    residual_norm: float
    iterations_used: int
    converged: bool
    # BPDN solver route: "zero", "lp", "homotopy" or "fallback"; "" when no
    # BPDN solve produced the estimate
    route: str = ""

    @property
    def support(self) -> tuple[int, ...]:
        """1-based indices of the injections above SUPPORT_THRESHOLD_REL of the largest."""
        return _support_of(self.injections)


def _support_of(x: np.ndarray) -> tuple[int, ...]:
    mag = np.abs(x)
    peak = mag.max() if x.size else 0.0
    if peak == 0.0:
        return ()
    return tuple((np.flatnonzero(mag > SUPPORT_THRESHOLD_REL * peak) + 1).tolist())


def apply_current_offsets(y, model: ImpedanceModel, sensor_buses, known: dict[int, float]):
    """Subtract the voltage contribution of known current injections from y."""
    y = np.asarray(y, dtype=float)
    sensor_buses = tuple(sensor_buses)
    if y.shape != (len(sensor_buses),):
        raise ValidationError("y length must match the sensor bus list")
    known_buses = sorted(known)
    currents = np.array([known[b] for b in known_buses], dtype=float)
    return y - assemble_measurement_matrix(model, sensor_buses, known_buses) @ currents


def _system(model: ImpedanceModel, row_buses, known: dict[int, float]) -> "MeasurementSystem":
    """The `MeasurementSystem` for these rows and known injections, built once.

    Kept in a bounded memo keyed by the model's identity, the row buses in
    order and the bits of the known currents, so a snapshot stream against
    one plan sets up its matrices, BPDN problem and LP arrays once. The
    systems are never written to after the build, so threads share them;
    two threads missing at once may each build one, both identical.
    """
    buses = tuple(sorted(known))
    currents = np.array([known[b] for b in buses], dtype=float)
    return _memo_system(model, tuple(row_buses), buses, currents.tobytes())


@functools.lru_cache(maxsize=_SYSTEMS_KEPT)
def _memo_system(model, row_buses, known_buses, currents) -> "MeasurementSystem":
    known = dict(zip(known_buses, np.frombuffer(currents).tolist()))
    return MeasurementSystem(model, row_buses, known)


class MeasurementSystem:
    """Z's rows for one set of voltage readings, split at the known injections.

    Built once from the model, the row buses in reading order and the known
    injections (bus -> current), with `assemble_measurement_matrix`, which
    checks the bus ids. `rows` keeps the readings' rows over every bus.
    `bpdn` and `min_energy` subtract the known injections' part of one
    reading vector, solve for the unknown buses and return the injections
    at every bus, the known ones in place.
    """

    def __init__(self, model: ImpedanceModel, row_buses, known: dict[int, float]):
        m = model.size
        known_buses = sorted(known)
        currents = np.array([known[b] for b in known_buses], dtype=float)
        unknown = [b for b in range(1, m + 1) if b not in known]
        self.a = assemble_measurement_matrix(model, row_buses, unknown)
        self.rows = model.impedance[np.array(row_buses) - 1]
        self.problem = BpdnProblem(self.a) if unknown else None
        self.unknown = np.array(unknown, dtype=int) - 1
        self.base = np.zeros(m)
        self.offset = 0.0
        if known:
            self.offset = assemble_measurement_matrix(model, row_buses, known_buses) @ currents
            self.base[np.array(known_buses) - 1] = currents

    def _scatter(self, x) -> np.ndarray:
        full = self.base.copy()
        full[self.unknown] = x
        return full

    def bpdn(self, y, cfg: SolverConfig) -> SparseEstimate:
        """The BPDN estimate over the unknown buses, scattered to every bus.

        The residual norm is the solver's. With every injection known nothing
        is solved: the estimate is the known currents, converged, with no
        route; non-finite readings or known currents raise, as in a solve.
        """
        y_off = y - self.offset
        if self.problem is not None:
            est = self.problem.solve(y_off, cfg)
        elif np.isfinite(y_off).all():
            est = SparseEstimate(np.zeros(0), float(np.linalg.norm(y_off)), 0, True)
        else:
            raise ValidationError("non-finite entries in solver input")
        return replace(est, injections=self._scatter(est.injections))

    def min_energy(self, y) -> np.ndarray:
        """Minimum-norm injections at every bus."""
        return self._scatter(min_energy(self.a, y - self.offset))


def min_energy(a, y) -> np.ndarray:
    """Minimum-Euclidean-norm (least-squares) solution of A x = y."""
    a = np.asarray(a, dtype=float)
    y = np.asarray(y, dtype=float)
    if a.size == 0:
        raise ValidationError("empty system matrix")
    x, *_ = np.linalg.lstsq(a, y, rcond=None)
    return x


def _highs_core():
    """scipy's HiGHS bindings, loaded from their file unless already imported.

    Importing them by name would import all of scipy.optimize, scipy.sparse
    and scipy.linalg. Registered under their name before they run, so that a
    later `import scipy.optimize` reuses them and HiGHS's global scheduler.
    """
    with _HIGHS_CORE_LOCK:
        if _HIGHS_CORE not in sys.modules:
            # finding scipy's directory does not import scipy
            dirs = getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", ())
            paths = [os.path.join(d, "optimize", "_highspy", "_core" + suffix)
                     for d in dirs for suffix in importlib.machinery.EXTENSION_SUFFIXES]
            path = next(filter(os.path.isfile, paths), None)
            if path is None:
                raise ImportError(f"scipy's HiGHS bindings not found; searched {paths}")
            spec = importlib.util.spec_from_file_location(_HIGHS_CORE, path)
            sys.modules[_HIGHS_CORE] = core = importlib.util.module_from_spec(spec)
            try:
                spec.loader.exec_module(core)
            except BaseException:
                del sys.modules[_HIGHS_CORE]
                raise
        return sys.modules[_HIGHS_CORE]


def _highs_solver():
    """(HiGHS bindings, this thread's solver), made on the thread's first call.

    The solver gets its options once: the primal simplex, which takes a few
    iterations on the basis-pursuit dual where the dual simplex takes dozens;
    no scaling, with which a kept model's answer would depend on the y
    solved before it; no presolve, which would take most of a solve on these
    small dense LPs; 1e-9 primal and dual feasibility tolerances. `threads`
    keeps its default, 0: HiGHS refuses to run a solver whose nonzero thread
    count differs from the process-wide scheduler's, which the first run of
    any HiGHS solver in the process sets up (linprog's among them).
    """
    try:
        return _HIGHS.core, _HIGHS.solver
    except AttributeError:
        pass
    # private module: linprog's HiGHS without its per-call wrapper; TestBpLpOracle
    # checks its answers against linprog. Loaded here, not at import, so that
    # only the basis-pursuit LP pays for it
    _core = _highs_core()

    options = _core.HighsOptions()
    options.presolve = "off"
    options.primal_feasibility_tolerance = 1e-9
    options.dual_feasibility_tolerance = 1e-9
    options.simplex_strategy = int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)
    options.simplex_scale_strategy = 0
    options.highs_debug_level = int(_core.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = False
    options.log_to_console = False
    solver = _core._Highs()
    if solver.passOptions(options) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the basis-pursuit LP options")
    _HIGHS.core, _HIGHS.solver, _HIGHS.model = _core, solver, None
    return _core, solver


def _bp_lp_arrays(an):
    """The basis-pursuit dual max y.l s.t. -1 <= A^T l <= 1, as HiGHS's arrays.

    (cols, col_lower, col_upper, row_lower, row_upper, a_start, a_index,
    a_value, integrality): everything but the costs, which each solve passes
    as -y for the column indices `cols`. The n columns l are free, and the m
    rows, one per column of A, are boxed in [-1, 1]. The constraint matrix
    is A^T passed column-wise, that is A's rows, with exact zeros dropped;
    the integrality is all continuous, since the bindings reject an empty
    array. No solve writes to the arrays, so threads can share them.
    """
    n, m = an.shape
    nz = an != 0
    start = np.concatenate(([0], np.cumsum(nz.sum(axis=1)))).astype(np.int32)
    return (
        np.arange(n, dtype=np.int32), np.full(n, -np.inf), np.full(n, np.inf),
        np.full(m, -1.0), np.ones(m), start, np.nonzero(nz)[1].astype(np.int32), an[nz],
        np.zeros(n, dtype=np.int32),
    )


def _solve_bp_lp(an, y, ftol, arrays):
    """Equality-constrained basis pursuit, solved by HiGHS as its dual LP.

    min ||x||_1 s.t. A x = y has the dual max y.l s.t. ||A^T l||_inf <= 1
    (Chen, Donoho & Saunders 1998). `arrays` is `_bp_lp_arrays(an)`; the
    solve minimizes -y.l on this thread's solver and reads x as minus the
    row duals. The solver keeps the model of its last clean solve, known by
    the identity of its arrays (held, so the identity cannot be reused):
    when the same arrays come back, one call sets the costs, and clearSolver
    makes the solve start from the logical basis, as a fresh model does, so
    no answer depends on earlier solves. Other arrays go to passModel, which
    replaces the model. Where the l1 minimum is tied, x is one optimal
    vertex. Returns None when HiGHS reports an error, a non-optimal model
    (an unbounded dual: y outside the range of A) or no valid iteration
    count, or leaves a non-finite x or a residual above tolerance; the
    caller then returns the least-squares point, and the next solve passes
    its model again.
    """
    core, solver = _highs_solver()
    n, m = an.shape
    cols, col_lower, col_upper, row_lower, row_upper, start, index, value, integrality = arrays
    error = core.HighsStatus.kError
    kept = _HIGHS.model is arrays
    # forgotten until this solve ends at a clean optimum
    _HIGHS.model = None
    if kept:
        loaded = solver.changeColsCost(n, cols, -y) != error
        loaded = loaded and solver.clearSolver() != error
    else:
        loaded = solver.passModel(
            n, m, value.size, int(core.MatrixFormat.kColwise), int(core.ObjSense.kMinimize), 0.0,
            -y, col_lower, col_upper, row_lower, row_upper, start, index, value, integrality,
        ) != error
    if (
        not loaded
        or solver.run() == error
        or solver.getModelStatus() != core.HighsModelStatus.kOptimal
    ):
        return None
    x = -np.array(solver.getSolution().row_dual)
    if not np.isfinite(x).all():
        return None
    # clean complementary slack: drop multipliers at rounding level
    x[np.abs(x) < 1e-12 * max(1.0, np.abs(x).max())] = 0.0
    residual = float(np.linalg.norm(y - an @ x))
    status, iterations = solver.getInfoValue("simplex_iteration_count")
    if residual > ftol or status != core.HighsStatus.kOk:
        return None
    _HIGHS.model = arrays
    return x, residual, int(iterations)


def _bpdn_homotopy(an, y, eps, max_steps):
    """Exact BPDN via the lasso regularization path (LARS-lasso, Efron et al. 2004).

    The lasso solution is piecewise linear in the penalty weight, and the
    residual norm shrinks monotonically as the weight decreases; walking the
    path from the all-zero end and stopping where the residual crosses eps
    yields the constrained optimum directly. Returns (beta, residual, steps)
    or None when the walk gives up, and the caller then returns the
    least-squares point, not converged: no event and no crossing (no point
    lies within eps), an empty active set, max_steps used, or a crossing
    point that fails the KKT certificate.

    Each step takes one SVD of the active columns A_S and reads both segment
    solves from it, on the same singular values s > 1e-11 s_max: phi =
    pinv(A_S) y and psi = pinv(A_S^T A_S) signs. With a cut-off of its own,
    psi could drop a direction that phi keeps; on plans with near-duplicate
    columns (buses 1...60 of the 118-bus model) the path then jumps, and
    the certificate fails. The next event is the largest candidate
    weight at or below the current one, clipped to it; of candidates above
    it the last one wins, otherwise the first maximum. An active
    coefficient drops only when it moves towards zero from its sign's side.
    Tied events (LARS section 3.1): when the coefficient added last moves
    against its sign on its first segment (signs[-1] * psi[-1] <= 0), it
    cannot join at this weight. It is taken out and skipped, and the
    previous segment is searched again at the same weight; the skipped set
    empties once the weight moves strictly lower.
    """
    m = an.shape[1]
    c0 = (an.T @ y).tolist()
    mags = [abs(c) for c in c0]
    lam = max(mags)
    if lam <= 0:
        return None
    active: list[int] = [mags.index(lam)]
    signs: list[float] = [1.0 if c0[active[0]] > 0 else -1.0]
    tiny = 1e-13 * max(1.0, lam)
    # the index involved in the most recent event has a candidate event
    # sitting exactly at the segment's starting lam; only that spurious
    # re-fire is suppressed, a genuine later event for it stays allowed
    barred = active[0]
    # indices whose add at the current lam was undone: wrong-signed there
    skip: set[int] = set()
    added = False
    kept = None

    for step in range(1, max_steps + 1):
        sub = an[:, active]
        left, sv, right = np.linalg.svd(sub, full_matrices=False)
        # truncated least squares: coherent columns drive the active-set
        # systems towards singularity, and plain solves derail the path
        s = sv.tolist()
        k = sum(1 for x in s if x > 1e-11 * s[0])
        psi = right[:k].T @ ((right[:k] @ signs) / (sv[:k] * sv[:k]))
        if added and signs[-1] * psi[-1] <= 0:
            skip.add(active.pop())
            signs.pop()
            barred, segment = kept
        else:
            phi = right[:k].T @ ((left[:, :k].T @ y) / sv[:k])
            # on this segment beta(l) = phi - l*psi, residual r(l) = u + l*v;
            # kept: phi, psi, the correlations A^T u and A^T v, and the Gram of (u, v)
            uv = np.array((y - sub @ phi, sub @ psi))
            segment = phi, psi, *(uv @ an).tolist(), *(uv @ uv.T).tolist()
        kept = barred, segment
        phi, psi, cu, cv, (uu, u_v), (_, vv) = segment

        # next active-set event: an inactive correlation reaching the bound
        # or an active coefficient hitting zero; events may coincide with the
        # current lam when columns are highly coherent, so allow cand == lam
        lam_next = 0.0
        event = None  # (add, index, sign)
        top = lam + tiny
        near = lam * (1.0 - 1e-9) - tiny
        in_active = set(active)
        for j in range(m):
            if j in in_active:
                continue
            held = j == barred or j in skip
            for sgn in (1.0, -1.0):
                denom = sgn - cv[j]
                if abs(denom) < tiny:
                    continue
                cand = cu[j] / denom
                if held and cand > near:
                    continue
                if tiny < cand <= top and cand > lam_next:
                    lam_next = min(cand, lam)
                    event = (True, j, sgn)
        for j, sign, p, q in zip(active, signs, phi.tolist(), psi.tolist()):
            # only a coefficient moving towards zero from its sign's side
            # drops; one moving away has its zero crossing behind, and one
            # just added crosses below lam only by rounding
            if abs(q) < tiny or sign * q > 0:
                continue
            cand = p / q
            if j == barred and cand > near:
                continue
            if tiny < cand <= top and cand > lam_next:
                lam_next = min(cand, lam)
                event = (False, j, 0.0)

        # residual-norm crossing ||u + l v|| = eps; the segment formulas are
        # only valid down to the next event, so restrict roots to [lam_next, lam]
        a2 = vv
        a1 = 2.0 * u_v
        a0 = uu - eps * eps
        cross = None
        if a2 > 0:
            disc = a1 * a1 - 4.0 * a2 * a0
            if disc >= 0:
                roots = [(-a1 + math.sqrt(disc)) / (2 * a2), (-a1 - math.sqrt(disc)) / (2 * a2)]
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
            r = y - an @ beta
            corr = an.T @ r
            slack = cross * 1e-6
            if np.abs(corr).max() > cross + slack:
                return None
            nz = np.flatnonzero(beta)
            if nz.size and np.abs(corr[nz] - cross * np.sign(beta[nz])).max() > slack:
                return None
            return beta, math.sqrt(float(r @ r)), step

        if event is None:
            # no event and no crossing above: residual floor sits above eps
            return None
        add, j, sgn = event
        barred = j
        if lam_next < lam:
            skip.clear()
        lam = lam_next
        added = add
        if add:
            active.append(j)
            signs.append(sgn)
        else:
            pos = active.index(j)
            active.pop(pos)
            signs.pop(pos)
            if not active:
                return None
    return None


def solve_bpdn(a, y, cfg: SolverConfig) -> SparseEstimate:
    """l1 basis-pursuit denoising: min ||x||_1 s.t. ||y - A x||_2 <= epsilon.

    epsilon is the only setting; ftol = convergence_tol * max(1, ||y||)
    picks the route, which the estimate's `route` names. Zero ("zero") when
    ||y|| <= epsilon. At epsilon <= ftol, which counts as zero, basis
    pursuit ("lp"), solved as its dual LP by HiGHS's primal simplex through
    scipy's bundled bindings, without presolve or scaling, at 1e-9 primal
    and dual feasibility tolerances; x is the dual's row multipliers, the
    iterations are the primal simplex's, and where the l1 minimum is tied x
    is one optimal vertex. At epsilon > ftol, the lasso regularization path
    walked to where the residual norm meets epsilon ("homotopy"), with one
    SVD of the active columns per step, whose singular values above 1e-11
    s_max serve both the least-squares and the direction part. A tied add whose
    coefficient would move against its sign is taken back and skipped at
    that weight. Both routes give up through one exit: where the LP finds
    no point within ftol, or the path gives up (no point within epsilon, or
    an answer that fails its KKT certificate), the least-squares point
    comes back at once, not converged, with 0 iterations ("fallback"). So
    route "fallback" holds exactly when converged is False.
    Columns of A are normalized to unit norm internally and the solution is
    rescaled back, so the l1 penalty weights buses comparably.

    This is `BpdnProblem(a).solve(y, cfg)`; to solve for many y against one
    A, set the problem up once: the LP's arrays are built once, and while a
    thread solves against one problem, its solver takes the model once and
    only the costs -y after that.
    """
    return BpdnProblem(a).solve(y, cfg)


class BpdnProblem:
    """`solve_bpdn` against one matrix A, set up once and solved for many y.

    The set-up validates A and normalizes its columns. The first
    basis-pursuit solve (epsilon <= ftol) builds the dual LP's arrays
    without its costs. Each LP solve goes to its thread's one HiGHS solver,
    which keeps the model of the problem it solved last: the same problem
    again passes only -y as the costs, in one call, another problem passes
    its arrays with -y. A solve writes to nothing the problem holds, so
    threads may solve against one problem at once (two first solves at
    once may both build the same arrays).
    """

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.size == 0:
            raise ValidationError("empty system matrix")
        if not np.isfinite(a).all():
            raise ValidationError("non-finite entries in solver input")
        col_norms = np.linalg.norm(a, axis=0)
        self.col_norms = np.where(col_norms > 0, col_norms, 1.0)
        self.an = a / self.col_norms
        self._lp_arrays = None

    def solve(self, y, cfg: SolverConfig) -> SparseEstimate:
        """`solve_bpdn`'s estimate for the reading vector y."""
        y = np.asarray(y, dtype=float)
        if not np.isfinite(y).all():
            raise ValidationError("non-finite entries in solver input")
        an = self.an
        n, m = an.shape
        eps = cfg.epsilon
        y_norm = float(np.linalg.norm(y))
        ftol = cfg.convergence_tol * max(1.0, y_norm)

        if y_norm <= eps:
            # zero is feasible and l1-minimal
            return SparseEstimate(np.zeros(m), y_norm, 0, True, "zero")

        if eps <= ftol:
            # basis pursuit: below the solver's tolerance eps counts as zero
            if self._lp_arrays is None:
                self._lp_arrays = _bp_lp_arrays(an)
            found = _solve_bp_lp(an, y, ftol, self._lp_arrays)
            route = "lp"
        else:
            found = _bpdn_homotopy(an, y, eps, max_steps=8 * (n + m) + 32)
            route = "homotopy"
        if found is None:
            # no point within epsilon (within ftol for basis pursuit), or a
            # walk that gave up: the least-squares point, which is as close
            # as any x gets, not converged
            beta = min_energy(an, y)
            found = beta, float(np.linalg.norm(y - an @ beta)), 0
            route = "fallback"
        beta, residual, iterations = found
        x = beta / self.col_norms
        return SparseEstimate(x, residual, iterations, route != "fallback", route)


def jacobian_power_rows(model: ImpedanceModel, currents, power_buses) -> np.ndarray:
    """Rows of the power-injection Jacobian d(V_i * I_i)/dI_j at the given currents."""
    z = model.impedance
    m = model.size
    currents = np.asarray(currents, dtype=float)
    if currents.shape != (m,):
        raise ValidationError(f"current vector must have length {m}")
    power_buses = tuple(power_buses)
    for b in power_buses:
        if not 1 <= b <= m:
            raise ValidationError(f"power bus {b} not in model")
    rows = np.zeros((len(power_buses), m))
    v = z @ currents
    for k, b in enumerate(power_buses):
        i = b - 1
        rows[k] = z[i] * currents[i]
        rows[k, i] = 2.0 * z[i, i] * currents[i] + (v[i] - z[i, i] * currents[i])
    return rows


def _voltage_rows(meas: MeasurementSet, metered):
    """Voltage-row buses and readings: metered buses in ascending order, then regulated sources."""
    sources = sorted(meas.voltage_source_buses)
    buses = sorted(b for b in metered if b not in meas.voltage_source_buses) + sources
    missing = [b for b in buses if b not in meas.voltage_readings]
    if missing:
        raise ValidationError(f"no voltage value for regulated source buses {missing}")
    return buses, np.array([meas.voltage_readings[b] for b in buses])


def constant_power_newton(
    model: ImpedanceModel,
    meas: MeasurementSet,
    cfg: SolverConfig,
    initial: SparseEstimate,
) -> SparseEstimate:
    """Damped Newton refinement for constant-power devices.

    Stacks the linear voltage residuals with the nonlinear power residuals
    P_k - V_k(I) * I_k and iterates on the unknown currents restricted to the
    initial estimate's support plus the power buses. Known injections stay
    fixed. Each step solves the linearized system in the minimum-norm sense.
    """
    m = model.size
    z = model.impedance
    if not meas.power_constraints:
        raise ValidationError("no power constraints to refine")
    power_buses = sorted(meas.power_constraints)
    for what, buses in (
        ("power bus", power_buses),
        ("known injection bus", meas.known_injections),
        ("voltage reading bus", meas.voltage_readings),
    ):
        for b in buses:
            if not 1 <= b <= m:
                raise ValidationError(f"{what} {b} not in model")
    row_buses, v_meas = _voltage_rows(meas, meas.voltage_readings)
    current = np.array(initial.injections, dtype=float)
    if current.shape != (m,):
        raise ValidationError(f"initial estimate must have length {m}")
    for b, val in meas.known_injections.items():
        current[b - 1] = val
    p_target = np.array([meas.power_constraints[b] for b in power_buses])
    if not np.isfinite(np.concatenate([v_meas, p_target, current])).all():
        raise ValidationError("non-finite entries in solver input")

    # Z's voltage rows: the voltage residual's matrix and its Jacobian block
    z_rows = z[np.array(row_buses, dtype=int) - 1]
    power = np.array(power_buses) - 1
    # all-zero power entries give an identically zero Jacobian row; nudge them
    current[power[np.abs(current[power]) < 1e-12]] = 1e-3
    unknown = sorted(
        (set(initial.support) | set(power_buses)) - set(meas.known_injections)
    )
    cols = np.array(unknown) - 1

    # the voltage part is Z_rows @ I, not (Z @ I)[rows]: BLAS sums a row with a
    # kernel that depends on its position, so the two can differ in the last bit
    def residual(ivec):
        v = z @ ivec
        return np.concatenate([v_meas - z_rows @ ivec, p_target - v[power] * ivec[power]])

    r = residual(current)
    # pass k tests the residual after k - 1 steps; the pass after the last
    # step only tests it
    for iterations in range(1, cfg.newton_max_iter + 2):
        norm = float(np.linalg.norm(r))
        converged = norm < cfg.newton_tol
        if converged or iterations > cfg.newton_max_iter:
            break
        jac = np.vstack([z_rows, jacobian_power_rows(model, current, power_buses)])
        step, *_ = np.linalg.lstsq(jac[:, cols], r, rcond=None)
        # backtracking damping on the residual norm
        t = 1.0
        for _ in range(30):
            trial = current.copy()
            trial[cols] += t * step
            r_trial = residual(trial)
            if np.linalg.norm(r_trial) < norm:
                break
            t *= 0.5
        else:
            raise NewtonDivergenceError(
                f"no damping step reduced the residual (||r|| = {norm:.3e})",
                SparseEstimate(current, norm, iterations, False),
            )
        current, r = trial, r_trial
    return SparseEstimate(current, norm, min(iterations, cfg.newton_max_iter), converged)


def estimate_state(
    model: ImpedanceModel,
    meas: MeasurementSet,
    plan: PlacementPlan,
    cfg: SolverConfig,
) -> SparseEstimate:
    """Full estimation pipeline for one measurement snapshot.

    Voltage rows are the plan's meters in ascending bus order, then any
    regulated sources; a `MeasurementSystem` on those rows offsets the known
    current injections and recovers the remaining sparse injections with
    BPDN; constant-power devices, when present, are refined with the Newton
    iteration seeded by the BPDN estimate. The system is built once per
    model, rows and known injections and reused from a bounded memo, so
    snapshots against one plan share its matrices and LP arrays.
    """
    expected = set(plan.chosen) | set(meas.voltage_source_buses)
    if set(meas.voltage_readings) != expected:
        raise ValidationError(
            "voltage readings must cover exactly the plan's meters plus regulated "
            f"source buses; expected {sorted(expected)}, got {sorted(meas.voltage_readings)}"
        )
    row_buses, y = _voltage_rows(meas, plan.chosen)
    system = _system(model, row_buses, meas.known_injections)
    est = system.bpdn(y, cfg)
    if meas.power_constraints:
        refined = constant_power_newton(model, meas, cfg, est)
        est = replace(
            est, injections=refined.injections,
            iterations_used=est.iterations_used + refined.iterations_used,
            converged=est.converged and refined.converged,
        )
    return replace(est, residual_norm=float(np.linalg.norm(y - system.rows @ est.injections)))
