"""DC network model: case files, conductance assembly, impedance inversion."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEVICE_KINDS = (
    "current_source",
    "voltage_source",
    "constant_power",
    "constant_resistance_load",
)

CASE_HEADER = "gridsense-case v1"

# largest condition estimate of G that invert_to_impedance accepts
CONDITION_CEILING = 1e8


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


# eq=False: models compare and hash by identity, which keys recon's memo
@dataclass(frozen=True, eq=False)
class ImpedanceModel:
    impedance: np.ndarray
    condition_estimate: float

    @property
    def size(self) -> int:
        return self.impedance.shape[0]


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


def read_sections(text: str, header: str, sections, parse_line) -> None:
    """Read a gridsense text file (case, snapshot or plan) line by line.

    Drops `#` comments and blank lines, checks the header line and tracks
    `[section]` lines, which must name one of `sections` (a format without
    sections passes none). Each data line goes to `parse_line(section,
    tokens)`; a ValueError from it becomes a CaseParseError with the line
    number.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines or lines[0][1] != header:
        raise CaseParseError(f"missing header line {header!r}")
    section = None
    for lineno, line in lines[1:]:
        try:
            if line[0] == "[" and line[-1] == "]" and sections:
                section = line[1:-1]
                if section not in sections:
                    raise ValueError(f"unknown section [{section}]")
            elif section is None and sections:
                raise ValueError("data before any section header")
            else:
                parse_line(section, line.split())
        except ValueError as exc:
            raise CaseParseError(f"line {lineno}: {exc}") from None


def load_network(source) -> DcNetwork:
    """Load a `gridsense-case v1` case from a path (str or os.PathLike) or its text.

    A str is case text when it contains a newline and a file path otherwise.
    """
    buses: list[Bus] = []
    branches: list[Branch] = []
    devices: list[InjectionDevice] = []

    def parse_line(section, tok):
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

    read_sections(_read_text(source), CASE_HEADER, ("buses", "branches", "devices"), parse_line)
    return DcNetwork(tuple(buses), tuple(branches), tuple(devices))


def _read_text(source) -> str:
    # every valid case has a header line and a section line
    if isinstance(source, str) and "\n" in source:
        return source
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    raise TypeError(f"unsupported case source {type(source)!r}")


# --- matrix assembly -----------------------------------------------------


def build_conductance_matrix(net: DcNetwork) -> np.ndarray:
    """Nodal conductance matrix G: branches, then resistances to ground on the
    diagonal: bus shunts in bus order, then constant-resistance loads in device order."""
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
    for d in net.devices_of_kind("constant_resistance_load"):
        g[d.bus - 1, d.bus - 1] += 1.0 / d.value
    return g


def invert_to_impedance(g: np.ndarray) -> ImpedanceModel:
    """Invert the conductance matrix to the bus impedance matrix Z = G^-1.

    Z comes from Gauss-Jordan elimination on G's diagonal pivots, which a
    positive definite G needs no exchange for; a pivot <= 0 raises. Each
    step is an elementwise rank-1 update with no BLAS reduction, so Z has
    the same bits whatever the BLAS thread count.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValidationError("conductance matrix must be square")
    if not np.allclose(g, g.T, rtol=0, atol=1e-12 * max(1.0, np.abs(g).max())):
        raise ValidationError("conductance matrix must be symmetric")

    cond = float(np.linalg.cond(g))
    if not np.isfinite(cond) or cond > CONDITION_CEILING:
        raise SingularModelError(
            f"conductance matrix is singular or ill-conditioned "
            f"(condition estimate {cond:.3e} exceeds ceiling {CONDITION_CEILING:.1e}); "
            f"the network may lack a shunt path to ground"
        )
    z = g.copy()
    for k in range(g.shape[0]):
        pivot = z[k, k]
        if not pivot > 0:
            raise SingularModelError(
                f"conductance matrix is not positive definite (pivot {pivot:.3e} at bus {k + 1})"
            )
        col = z[:, k].copy()
        col[k] = 0.0
        z[:, k] = 0.0
        z[k, k] = 1.0
        z[k] /= pivot
        z -= np.multiply.outer(col, z[k])
    residual = np.abs(z @ g - np.eye(g.shape[0])).max()
    if residual >= 1e-8:
        raise SingularModelError(
            f"inverse verification failed: max |ZG - I| = {residual:.3e}"
        )
    return ImpedanceModel(impedance=z, condition_estimate=cond)


def build_impedance_model(net: DcNetwork) -> ImpedanceModel:
    """Full pipeline: assemble G, invert to Z."""
    return invert_to_impedance(build_conductance_matrix(net))
