"""Sparse reconstruction of injection currents from measurement snapshots."""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from .network import CaseParseError, ImpedanceModel, ValidationError
from .sensing import PlacementPlan, assemble_measurement_matrix

SNAPSHOT_HEADER = "gridsense-snapshot v1"

# entries below this fraction of the largest estimate are reported as zero
SUPPORT_THRESHOLD_REL = 1e-6

# each thread's HiGHS solver and the bindings module, set by _highs_solver
_HIGHS = threading.local()


class NewtonDivergenceError(RuntimeError):
    """Constant-power refinement failed; carries the last iterate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 0.0
    max_iterations: int = 4000
    convergence_tol: float = 1e-7
    newton_max_iter: int = 50
    newton_tol: float = 1e-10

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if self.max_iterations < 1 or self.newton_max_iter < 1:
            raise ValidationError("iteration limits must be positive")
        if not (self.convergence_tol > 0 and self.newton_tol > 0):
            raise ValidationError("tolerances must be > 0")


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
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        if not lines or lines[0] != SNAPSHOT_HEADER:
            raise CaseParseError(f"missing header line {SNAPSHOT_HEADER!r}")
        sections = {"voltages": {}, "known_injections": {}, "power_constraints": {}}
        vsources: set[int] = set()
        current = None
        for ln in lines[1:]:
            if ln.startswith("[") and ln.endswith("]"):
                current = ln[1:-1]
                if current not in (*sections, "voltage_sources"):
                    raise CaseParseError(f"unknown snapshot section [{current}]")
                continue
            if current is None:
                raise CaseParseError("data before any snapshot section")
            tok = ln.split()
            try:
                if current == "voltage_sources":
                    if len(tok) != 1:
                        raise ValueError("expected a single bus id")
                    vsources.add(int(tok[0]))
                else:
                    if len(tok) != 2:
                        raise ValueError("expected: bus value")
                    sections[current][int(tok[0])] = float(tok[1])
            except ValueError as exc:
                raise CaseParseError(f"malformed snapshot line {ln!r}: {exc}") from None
        return cls(
            voltage_readings=sections["voltages"],
            known_injections=sections["known_injections"],
            power_constraints=sections["power_constraints"],
            voltage_source_buses=frozenset(vsources),
        )


@dataclass(frozen=True)
class SparseEstimate:
    injections: np.ndarray
    support: tuple[int, ...]
    residual_norm: float
    iterations_used: int
    converged: bool
    objective_trace: tuple[float, ...] = ()
    # BPDN solver route: "zero", "lp", "homotopy" or "fallback"; "" when no
    # BPDN solve produced the estimate
    route: str = ""


def _support_of(x: np.ndarray) -> tuple[int, ...]:
    peak = np.abs(x).max() if x.size else 0.0
    if peak == 0.0:
        return ()
    return tuple(int(i) + 1 for i in np.flatnonzero(np.abs(x) > SUPPORT_THRESHOLD_REL * peak))


def apply_current_offsets(y, model: ImpedanceModel, sensor_buses, known: dict[int, float]):
    """Subtract the voltage contribution of known current injections from y."""
    y = np.asarray(y, dtype=float)
    sensor_buses = tuple(sensor_buses)
    if y.shape != (len(sensor_buses),):
        raise ValidationError("y length must match the sensor bus list")
    return y - MeasurementSystem(model, sensor_buses, known).offset


class MeasurementSystem:
    """Z's rows for one set of voltage readings, split at the known injections.

    Built once from the model, the row buses in reading order and the known
    injections (bus -> current), with `assemble_measurement_matrix`, which
    checks the bus ids. `bpdn` and `min_energy` subtract the known
    injections' part of one reading vector, solve for the unknown buses and
    return the injections at every bus, the known ones in place.
    """

    def __init__(self, model: ImpedanceModel, row_buses, known: dict[int, float]):
        m = model.size
        known_buses = sorted(known)
        currents = np.array([known[b] for b in known_buses], dtype=float)
        unknown = [b for b in range(1, m + 1) if b not in known]
        self.a = assemble_measurement_matrix(model, row_buses, unknown).rows
        self.problem = BpdnProblem(self.a) if unknown else None
        self.unknown = np.array(unknown, dtype=int) - 1
        self.base = np.zeros(m)
        self.offset = 0.0
        if known:
            self.offset = assemble_measurement_matrix(model, row_buses, known_buses).rows @ currents
            self.base[np.array(known_buses) - 1] = currents

    def _scatter(self, x) -> np.ndarray:
        full = self.base.copy()
        full[self.unknown] = x
        return full

    def bpdn(self, y, cfg: SolverConfig) -> tuple[np.ndarray, SparseEstimate]:
        """(injections at every bus, the BPDN estimate over the unknown buses).

        With every injection known nothing is solved: the estimate is empty,
        converged, and has no route.
        """
        y_off = y - self.offset
        if self.problem is None:
            return self.base.copy(), SparseEstimate(
                injections=np.zeros(0), support=(), residual_norm=float(np.linalg.norm(y_off)),
                iterations_used=0, converged=True,
            )
        est = self.problem.solve(y_off, cfg)
        return self._scatter(est.injections), est

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
                    support=_support_of(x),
                    residual_norm=residual,
                    iterations_used=checked,
                    converged=True,
                )
    return None


def _highs_solver():
    """(HiGHS bindings, this thread's solver), made on the thread's first call.

    The solver gets linprog(method="highs")'s options once. passModel clears
    the previous model, basis and solution, so reuse changes no answer.
    """
    try:
        return _HIGHS.core, _HIGHS.solver
    except AttributeError:
        pass
    # private module: linprog's HiGHS without its per-call wrapper; TestBpLpOracle
    # guards it. Imported here because scipy.optimize is most of the import
    # time of gridsense, and only the eps=0 LP needs it
    from scipy.optimize._highspy import _core

    options = _core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = int(_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(_core.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = False
    options.log_to_console = False
    solver = _core._Highs()
    if solver.passOptions(options) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the basis-pursuit LP options")
    _HIGHS.core, _HIGHS.solver = _core, solver
    return _core, solver


def _bp_lp_template(an):
    """Basis pursuit min 1.(p + q) s.t. A(p - q) = y, p, q >= 0, without its row bounds.

    The constraint matrix is the column-wise [A, -A] with exact zeros
    dropped, like linprog's CSC copy; each solve sets the row bounds to y.
    """
    core, _ = _highs_solver()
    n, m = an.shape
    nz = an.T != 0
    rows = np.nonzero(nz)[1]
    vals = an.T[nz]
    counts = np.tile(nz.sum(axis=1), 2)
    lp = core.HighsLp()
    lp.num_col_ = 2 * m
    lp.num_row_ = n
    lp.col_cost_ = np.ones(2 * m)
    lp.col_lower_ = np.zeros(2 * m)
    lp.col_upper_ = np.full(2 * m, core.kHighsInf)
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = 2 * m
    lp.a_matrix_.num_row_ = n
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(counts)))
    lp.a_matrix_.index_ = np.tile(rows, 2)
    lp.a_matrix_.value_ = np.concatenate((vals, -vals))
    return lp


def _solve_bp_lp(an, y, ftol, lp):
    """Equality-constrained basis pursuit as a linear program, solved by HiGHS.

    `lp` is `_bp_lp_template(an)`; its row bounds are set to y here. HiGHS's
    dual simplex is called directly, on this thread's solver, with the model
    and options that linprog(method="highs") would pass it, so x and the
    iteration count are linprog's. Returns None when HiGHS reports an error
    or a non-optimal model, or leaves a non-finite x or a residual above
    tolerance, in which case the caller falls back to the iterative path.
    """
    core, solver = _highs_solver()
    m = an.shape[1]
    lp.row_lower_ = y
    lp.row_upper_ = y
    error = core.HighsStatus.kError
    if (
        solver.passModel(lp) == error
        or solver.run() == error
        or solver.getModelStatus() != core.HighsModelStatus.kOptimal
    ):
        return None
    z = np.array(solver.getSolution().col_value)
    if not np.isfinite(z).all():
        return None
    x = z[:m] - z[m:]
    # clean complementary slack: keep the dominant sign contribution only
    x[np.abs(x) < 1e-12 * max(1.0, np.abs(x).max())] = 0.0
    residual = float(np.linalg.norm(y - an @ x))
    if residual > ftol:
        return None
    info = solver.getInfo()
    return x, residual, int(info.simplex_iteration_count or info.ipm_iteration_count)


def _bpdn_homotopy(an, y, eps, max_steps):
    """Exact BPDN via the lasso regularization path.

    The lasso solution is piecewise linear in the penalty weight, and the
    residual norm shrinks monotonically as the weight decreases; walking the
    path from the all-zero end and stopping where the residual crosses eps
    yields the constrained optimum directly. Returns (beta, residual, steps)
    or None when the active-set walk degenerates (caller falls back to FISTA).
    """
    n, m = an.shape
    c0 = an.T @ y
    lam = float(np.abs(c0).max())
    if lam <= 0:
        return None
    active: list[int] = [int(np.argmax(np.abs(c0)))]
    signs = np.array([np.sign(c0[active[0]])])
    tiny = 1e-13 * max(1.0, lam)
    # the index involved in the most recent event has a candidate event
    # sitting exactly at the segment's starting lam; only that spurious
    # re-fire is suppressed, a genuine later event for it stays allowed
    barred = active[0]

    for step in range(1, max_steps + 1):
        sub = an[:, active]
        gram = sub.T @ sub
        # truncated least squares: coherent columns drive the active-set
        # systems towards singularity, and plain solves derail the path
        phi, *_ = np.linalg.lstsq(sub, y, rcond=1e-11)
        psi, *_ = np.linalg.lstsq(gram, signs.astype(float), rcond=1e-11)
        # on this segment beta(l) = phi - l*psi, residual r(l) = u + l*v
        u = y - sub @ phi
        v = sub @ psi

        # next active-set event: an inactive correlation reaching the bound
        # or an active coefficient hitting zero; events may coincide with the
        # current lam when columns are highly coherent, so allow cand == lam
        lam_next = 0.0
        event = None  # (kind, index, sign)
        inactive = [j for j in range(m) if j not in active]
        if inactive:
            cu = an[:, inactive].T @ u
            cv = an[:, inactive].T @ v
            for k, j in enumerate(inactive):
                for sgn in (1.0, -1.0):
                    denom = sgn - cv[k]
                    if abs(denom) < tiny:
                        continue
                    cand = cu[k] / denom
                    if j == barred and cand > lam * (1.0 - 1e-9) - tiny:
                        continue
                    if tiny < cand <= lam + tiny and cand > lam_next:
                        lam_next = min(cand, lam)
                        event = ("add", j, sgn)
        for pos, j in enumerate(active):
            if abs(psi[pos]) < tiny:
                continue
            cand = phi[pos] / psi[pos]
            if j == barred and cand > lam * (1.0 - 1e-9) - tiny:
                continue
            if tiny < cand <= lam + tiny and cand > lam_next:
                lam_next = min(cand, lam)
                event = ("drop", j, 0.0)

        # residual-norm crossing ||u + l v|| = eps; the segment formulas are
        # only valid down to the next event, so restrict roots to [lam_next, lam]
        a2 = float(v @ v)
        a1 = 2.0 * float(u @ v)
        a0 = float(u @ u) - eps * eps
        cross = None
        if a2 > 0:
            disc = a1 * a1 - 4.0 * a2 * a0
            if disc >= 0:
                roots = [(-a1 + np.sqrt(disc)) / (2 * a2), (-a1 - np.sqrt(disc)) / (2 * a2)]
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
            corr = an.T @ (y - an @ beta)
            slack = cross * 1e-6
            if np.abs(corr).max() > cross + slack:
                return None
            nz = np.flatnonzero(beta)
            if nz.size and np.abs(corr[nz] - cross * np.sign(beta[nz])).max() > slack:
                return None
            residual = float(np.linalg.norm(y - an @ beta))
            return beta, residual, step

        if event is None:
            # no event and no crossing above: residual floor sits above eps
            return None
        barred = event[1]
        lam = lam_next
        if event[0] == "add":
            active.append(event[1])
            signs = np.append(signs, event[2])
        else:
            pos = active.index(event[1])
            active.pop(pos)
            signs = np.delete(signs, pos)
            if not active:
                return None
    return None


def solve_bpdn(a, y, cfg: SolverConfig) -> SparseEstimate:
    """l1 basis-pursuit denoising: min ||x||_1 s.t. ||y - A x||_2 <= epsilon.

    The noiseless limit (epsilon = 0) is an equality-constrained linear
    program, solved by HiGHS's dual simplex called directly through scipy's
    bundled bindings (not through linprog). The general case is solved
    exactly by walking the lasso regularization path to the point where the
    residual norm meets epsilon. If either route fails numerically (highly
    coherent columns can make the path's active-set systems singular) the
    solver falls back to bisection on the lasso penalty weight with an
    accelerated proximal-gradient (FISTA) inner solver, which is slower but
    convergent for any conditioning. Columns of A are normalized to unit
    norm internally and the solution is rescaled back, so the l1 penalty
    weights buses comparably. The objective trace is non-increasing: each
    entry is the l1 value of the newest (best) feasible iterate. The
    estimate's `route` names the branch that produced it: "zero" (y within
    epsilon of zero), "lp", "homotopy" or "fallback".

    This is `BpdnProblem(a).solve(y, cfg)`; to solve for many y against one
    A, set the problem up once.
    """
    return BpdnProblem(a).solve(y, cfg)


class BpdnProblem:
    """`solve_bpdn` against one matrix A, set up once and solved for many y.

    The set-up validates A and normalizes its columns. The first epsilon = 0
    solve builds the LP without its right-hand side; each LP solve sets the
    row bounds to y and runs on its thread's one HiGHS solver. One thread at
    a time may solve against a given problem.
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
        self._lp = None

    def solve(self, y, cfg: SolverConfig) -> SparseEstimate:
        y = np.asarray(y, dtype=float)
        if not np.isfinite(y).all():
            raise ValidationError("non-finite entries in solver input")
        beta, residual, iterations, converged, trace, route = self._solve_normalized(y, cfg)
        x = beta / self.col_norms
        return SparseEstimate(
            injections=x,
            support=_support_of(x),
            residual_norm=residual,
            iterations_used=iterations,
            converged=converged,
            objective_trace=tuple(trace),
            route=route,
        )

    def _solve_normalized(self, y, cfg: SolverConfig):
        """(beta, residual, iterations, converged, trace, route) on the normalized columns."""
        an = self.an
        n, m = an.shape
        eps = cfg.epsilon
        y_norm = float(np.linalg.norm(y))
        ftol = max(cfg.convergence_tol, 1e-12) * max(1.0, y_norm)

        if y_norm <= eps:
            # zero is feasible and l1-minimal
            return np.zeros(m), y_norm, 0, True, (0.0,), "zero"

        if eps == 0.0:
            if self._lp is None:
                self._lp = _bp_lp_template(an)
            lp = _solve_bp_lp(an, y, ftol, self._lp)
            if lp is not None:
                beta, residual, nit = lp
                return beta, residual, nit, True, (float(np.abs(beta).sum()),), "lp"
        else:
            hom = _bpdn_homotopy(an, y, eps, max_steps=8 * (n + m) + 32)
            if hom is not None:
                beta, residual, steps = hom
                return beta, residual, steps, True, (float(np.abs(beta).sum()),), "homotopy"

        # fallback: bisection on the lasso penalty, each subproblem solved by
        # accelerated proximal gradient (FISTA). Convergent regardless of
        # conditioning; the working epsilon is floored at ftol so the equality
        # limit still terminates
        eps_eff = max(eps, ftol)
        best_x, best_res, sweeps, trace, closed = _bpdn_cd_bisect(
            an, y, eps_eff, cfg.max_iterations, max(cfg.convergence_tol, 1e-12)
        )
        converged = closed and best_x is not None
        if best_x is None:
            # even the unpenalized least-squares fit sits above epsilon
            best_x, *_ = np.linalg.lstsq(an, y, rcond=None)
            best_res = float(np.linalg.norm(y - an @ best_x))
            trace = (float(np.abs(best_x).sum()),)
            converged = False
        return best_x, best_res, sweeps, converged, trace, "fallback"


def _bpdn_cd_bisect(an, y, eps, inner_cap, tol):
    """BPDN by outer bisection on the lasso weight, inner proximal gradient.

    The lasso residual norm grows monotonically with the penalty weight, so
    the constrained optimum sits at the largest weight whose residual is
    within eps; bisection brackets it while an accelerated proximal-gradient
    iteration (warm-started across weights) solves each penalized
    subproblem. Returns the iterate from the feasible side of the bracket.
    """
    n, m = an.shape
    lam_hi = float(np.abs(an.T @ y).max())
    lam_lo = 0.0
    step = 1.0 / np.linalg.norm(an, 2) ** 2
    beta = np.zeros(m)
    best = None
    best_res = None
    trace: list[float] = []
    iterations = 0
    closed = False
    for _ in range(60):
        lam = 0.5 * (lam_hi + lam_lo)
        thr = step * lam
        xk = beta.copy()
        zk = beta.copy()
        tk = 1.0
        for _ in range(inner_cap):
            iterations += 1
            grad = an.T @ (an @ zk - y)
            xn = zk - step * grad
            xn = np.sign(xn) * np.maximum(np.abs(xn) - thr, 0.0)
            tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            zk = xn + ((tk - 1.0) / tn) * (xn - xk)
            delta = float(np.abs(xn - xk).max())
            xk = xn
            tk = tn
            if delta <= tol * max(1.0, float(np.abs(xk).max())):
                break
        beta = xk
        res = float(np.linalg.norm(y - an @ beta))
        if res <= eps:
            # feasible side: larger weights shrink the l1 value further, but
            # inner inexactness can wobble, so keep the best iterate seen
            lam_lo = lam
            obj = float(np.abs(beta).sum())
            if best is None or obj <= trace[-1]:
                best = beta.copy()
                best_res = res
                trace.append(obj)
            else:
                trace.append(trace[-1])
        else:
            lam_hi = lam
        if lam_hi - lam_lo <= 1e-12 * max(1.0, lam_hi):
            closed = True
            break
    return best, best_res, iterations, trace, closed


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
    for b in power_buses:
        if not 1 <= b <= m:
            raise ValidationError(f"power bus {b} not in model")
    row_buses, v_meas = _voltage_rows(meas, meas.voltage_readings)
    z_sel = z[np.array(row_buses) - 1] if row_buses else np.zeros((0, m))

    current = np.asarray(initial.injections, dtype=float).copy()
    if current.shape != (m,):
        raise ValidationError(f"initial estimate must have length {m}")
    for b, val in meas.known_injections.items():
        current[b - 1] = val

    # all-zero power entries give an identically zero Jacobian row; nudge them
    for b in power_buses:
        if abs(current[b - 1]) < 1e-12:
            current[b - 1] = 1e-3

    unknown = sorted(
        (set(b for b in initial.support) | set(power_buses)) - set(meas.known_injections)
    )
    cols = np.array(unknown) - 1
    p_target = np.array([meas.power_constraints[b] for b in power_buses])

    def residual(ivec):
        v = z @ ivec
        parts = []
        if row_buses:
            parts.append(v_meas - z_sel @ ivec)
        parts.append(p_target - v[np.array(power_buses) - 1] * ivec[np.array(power_buses) - 1])
        return np.concatenate(parts)

    r = residual(current)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.newton_max_iter + 1):
        if np.linalg.norm(r) < cfg.newton_tol:
            converged = True
            break
        jac_power = jacobian_power_rows(model, current, power_buses)
        jac = np.vstack([z_sel, jac_power]) if row_buses else jac_power
        jac_red = jac[:, cols]
        step, *_ = np.linalg.lstsq(jac_red, r, rcond=None)
        # backtracking damping on the residual norm
        t = 1.0
        improved = False
        base = np.linalg.norm(r)
        for _ in range(30):
            trial = current.copy()
            trial[cols] += t * step
            r_trial = residual(trial)
            if np.linalg.norm(r_trial) < base:
                current = trial
                r = r_trial
                improved = True
                break
            t *= 0.5
        if not improved:
            est = _newton_result(current, r, iterations, False)
            raise NewtonDivergenceError(
                f"no damping step reduced the residual (||r|| = {base:.3e})", est
            )
    if np.linalg.norm(r) < cfg.newton_tol:
        converged = True
    return _newton_result(current, r, iterations, converged)


def _newton_result(current, r, iterations, converged):
    return SparseEstimate(
        injections=current.copy(),
        support=_support_of(current),
        residual_norm=float(np.linalg.norm(r)),
        iterations_used=iterations,
        converged=converged,
    )


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
    iteration seeded by the BPDN estimate.
    """
    expected = set(plan.chosen) | set(meas.voltage_source_buses)
    if set(meas.voltage_readings) != expected:
        raise ValidationError(
            "voltage readings must cover exactly the plan's meters plus regulated "
            f"source buses; expected {sorted(expected)}, got {sorted(meas.voltage_readings)}"
        )
    row_buses, y = _voltage_rows(meas, plan.chosen)
    system = MeasurementSystem(model, row_buses, meas.known_injections)
    full, est = system.bpdn(y, cfg)
    iterations, converged = est.iterations_used, est.converged

    if meas.power_constraints:
        seed = SparseEstimate(
            injections=full, support=_support_of(full), residual_norm=0.0,
            iterations_used=iterations, converged=converged,
        )
        refined = constant_power_newton(model, meas, cfg, seed)
        full = refined.injections
        iterations += refined.iterations_used
        converged = converged and refined.converged

    z_sel = model.impedance[np.array(row_buses) - 1]
    residual = float(np.linalg.norm(y - z_sel @ full))
    return SparseEstimate(
        injections=full,
        support=_support_of(full),
        residual_norm=residual,
        iterations_used=iterations,
        converged=converged,
        route=est.route,
    )
