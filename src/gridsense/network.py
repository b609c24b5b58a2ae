"""DC network model: case files, conductance assembly, impedance inversion."""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

DEVICE_KINDS = (
    "current_source",
    "voltage_source",
    "constant_power",
    "constant_resistance_load",
)

CASE_HEADER = "gridsense-case v1"

DEFAULT_CONDITION_CEILING = 1e8


class CaseParseError(ValueError):
    """Malformed case/snapshot/plan file syntax."""


class ValidationError(ValueError):
    """Structurally valid input that violates a model invariant."""


class SingularModelError(ValueError):
    """Conductance matrix is singular or numerically ill-conditioned."""


@dataclass(frozen=True)
class Bus:
    id: int
    name: str = ""
    shunt_resistance: float | None = None


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    resistance: float


@dataclass(frozen=True)
class InjectionDevice:
    bus: int
    kind: str
    value: float


@dataclass(frozen=True)
class DcNetwork:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    devices: tuple[InjectionDevice, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "devices", tuple(self.devices))
        _validate_network(self)

    @property
    def size(self) -> int:
        return len(self.buses)

    def devices_of_kind(self, kind: str) -> list[InjectionDevice]:
        return [d for d in self.devices if d.kind == kind]


@dataclass(frozen=True)
class ImpedanceModel:
    conductance: np.ndarray
    impedance: np.ndarray
    folded_loads: tuple[tuple[int, float], ...]
    condition_estimate: float

    @property
    def size(self) -> int:
        return self.impedance.shape[0]


@dataclass(frozen=True)
class ConditionReport:
    condition_estimate: float
    z_diag_min: float
    z_diag_max: float
    threshold: float
    ill_conditioned: bool


def _validate_network(net: DcNetwork) -> None:
    m = len(net.buses)
    if m == 0:
        raise ValidationError("network has no buses")
    ids = [b.id for b in net.buses]
    if sorted(ids) != list(range(1, m + 1)):
        raise ValidationError(f"bus ids must be unique and contiguous 1..{m}, got {sorted(ids)}")
    for b in net.buses:
        if b.shunt_resistance is not None and not b.shunt_resistance > 0:
            raise ValidationError(f"bus {b.id}: shunt resistance must be > 0")
    for br in net.branches:
        if br.from_bus == br.to_bus:
            raise ValidationError(f"branch {br.from_bus}-{br.to_bus} is a self-loop")
        for end in (br.from_bus, br.to_bus):
            if not 1 <= end <= m:
                raise ValidationError(f"branch references unknown bus {end}")
        if not br.resistance > 0:
            raise ValidationError(
                f"branch {br.from_bus}-{br.to_bus}: resistance must be > 0"
            )
    vsource_buses = set()
    for d in net.devices:
        if d.kind not in DEVICE_KINDS:
            raise ValidationError(f"unknown device kind {d.kind!r}")
        if not 1 <= d.bus <= m:
            raise ValidationError(f"device references unknown bus {d.bus}")
        if d.kind == "constant_resistance_load" and not d.value > 0:
            raise ValidationError(f"constant-resistance load at bus {d.bus} must be > 0")
        if d.kind == "voltage_source":
            if d.bus in vsource_buses:
                raise ValidationError(f"bus {d.bus} has more than one voltage source")
            vsource_buses.add(d.bus)
    if m > 1:
        _check_connected(net)


def _check_connected(net: DcNetwork) -> None:
    adj: dict[int, set[int]] = {b.id: set() for b in net.buses}
    for br in net.branches:
        adj[br.from_bus].add(br.to_bus)
        adj[br.to_bus].add(br.from_bus)
    seen = {1}
    stack = [1]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    missing = sorted(set(adj) - seen)
    if missing:
        raise ValidationError(f"network graph is not connected; unreachable buses {missing}")


# --- case file parsing ---------------------------------------------------


def _iter_case_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_network(source) -> DcNetwork:
    """Load a `gridsense-case v1` file from a path, stream, or text.

    A str is case text when it contains a newline and a file path otherwise.
    """
    text = _read_text(source)
    lines = list(_iter_case_lines(text))
    if not lines or lines[0][1] != CASE_HEADER:
        raise CaseParseError(f"missing header line {CASE_HEADER!r}")

    section = None
    buses: list[Bus] = []
    branches: list[Branch] = []
    devices: list[InjectionDevice] = []
    for lineno, line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in ("buses", "branches", "devices"):
                raise CaseParseError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise CaseParseError(f"line {lineno}: data before any section header")
        tok = line.split()
        try:
            if section == "buses":
                if len(tok) not in (1, 2, 3):
                    raise ValueError("expected: id [name] [shunt_resistance]")
                shunt = float(tok[2]) if len(tok) == 3 else None
                name = tok[1] if len(tok) >= 2 else ""
                buses.append(Bus(id=int(tok[0]), name=name, shunt_resistance=shunt))
            elif section == "branches":
                if len(tok) != 3:
                    raise ValueError("expected: from to resistance")
                branches.append(Branch(int(tok[0]), int(tok[1]), float(tok[2])))
            else:
                if len(tok) != 3:
                    raise ValueError("expected: bus kind value")
                devices.append(InjectionDevice(int(tok[0]), tok[1], float(tok[2])))
        except ValueError as exc:
            raise CaseParseError(f"line {lineno}: {exc}") from None
    return DcNetwork(tuple(buses), tuple(branches), tuple(devices))


def _read_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if isinstance(source, str):
        # every valid case has a header line and a section line
        if "\n" in source:
            return source
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    raise TypeError(f"unsupported case source {type(source)!r}")


# --- matrix assembly -----------------------------------------------------


def build_conductance_matrix(net: DcNetwork) -> np.ndarray:
    """Nodal conductance matrix; load folding not yet applied."""
    m = net.size
    g = np.zeros((m, m))
    for br in net.branches:
        i, j = br.from_bus - 1, br.to_bus - 1
        y = 1.0 / br.resistance
        g[i, i] += y
        g[j, j] += y
        g[i, j] -= y
        g[j, i] -= y
    for b in net.buses:
        if b.shunt_resistance is not None:
            g[b.id - 1, b.id - 1] += 1.0 / b.shunt_resistance
    return g


def fold_constant_resistance_loads(
    g: np.ndarray, net: DcNetwork
) -> tuple[np.ndarray, tuple[tuple[int, float], ...]]:
    """Absorb constant-resistance loads into the diagonal of G.

    Returns the folded matrix and the (bus, resistance) record of the folds.
    """
    folded = g.copy()
    record = []
    for d in net.devices_of_kind("constant_resistance_load"):
        if not d.value > 0:
            raise ValidationError(f"constant-resistance load at bus {d.bus} must be > 0")
        folded[d.bus - 1, d.bus - 1] += 1.0 / d.value
        record.append((d.bus, d.value))
    return folded, tuple(record)


def invert_to_impedance(
    g: np.ndarray,
    folded_loads: tuple[tuple[int, float], ...] = (),
    condition_ceiling: float = DEFAULT_CONDITION_CEILING,
) -> ImpedanceModel:
    """Invert the conductance matrix to the bus impedance matrix Z = G^-1."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValidationError("conductance matrix must be square")
    if not np.allclose(g, g.T, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max())):
        raise ValidationError("conductance matrix must be symmetric")

    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > condition_ceiling:
        raise SingularModelError(
            f"conductance matrix is singular or ill-conditioned "
            f"(condition estimate {cond:.3e} exceeds ceiling {condition_ceiling:.1e}); "
            f"the network may lack a shunt path to ground"
        )
    z = np.linalg.inv(g)
    residual = np.abs(z @ g - np.eye(g.shape[0])).max()
    if residual >= 1e-8:
        raise SingularModelError(
            f"inverse verification failed: max |ZG - I| = {residual:.3e}"
        )
    return ImpedanceModel(
        conductance=g, impedance=z, folded_loads=tuple(folded_loads),
        condition_estimate=cond,
    )


def build_impedance_model(
    net: DcNetwork, condition_ceiling: float = DEFAULT_CONDITION_CEILING
) -> ImpedanceModel:
    """Full pipeline: assemble G, fold loads, invert to Z."""
    g = build_conductance_matrix(net)
    g, folds = fold_constant_resistance_loads(g, net)
    return invert_to_impedance(g, folds, condition_ceiling)


def condition_report(
    model: ImpedanceModel, threshold: float = DEFAULT_CONDITION_CEILING
) -> ConditionReport:
    diag = np.diag(model.impedance)
    return ConditionReport(
        condition_estimate=model.condition_estimate,
        z_diag_min=float(diag.min()),
        z_diag_max=float(diag.max()),
        threshold=threshold,
        ill_conditioned=model.condition_estimate > threshold,
    )
