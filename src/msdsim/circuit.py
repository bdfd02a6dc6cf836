"""Multi-patch stabilizer-circuit IR with detector/observable/check annotation.

Instructions address qubits as (patch, qubit) pairs.  Measurements are
single-qubit and numbered globally in program order; detectors, checks and
observables are sets of measurement indices.  This module holds only the
IR: the fault table's one backward sweep (`sampler.fault_table`) interprets
it, and carries the exact annotation check (`sampler.validate_annotations`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .layout import PatchLayout

# Opcodes.  RX/RZ/RMINUS reset to |+>, |0>, |->.  MX/MZ measure one qubit with
# classical flip probability p.  DEPOL1/DEPOL2 are depolarizing channels.
# INJECT_Z applies Z to every listed qubit jointly (noiseless logical-error
# injection).  It has no rate: the sampler sets each run's input error rate.
OPS_RESET = {"RX", "RZ", "RMINUS"}
OPS_MEASURE = {"MX", "MZ"}
OPS_NOISE = {"DEPOL1", "DEPOL2", "INJECT_Z"}
OPS = OPS_RESET | OPS_MEASURE | OPS_NOISE | {"CNOT", "TICK"}

Addr = tuple[int, int]


@dataclass(frozen=True)
class Instr:
    op: str
    targets: tuple[Addr, ...] = ()
    p: float = 0.0


@dataclass(frozen=True)
class Detector:
    meas: tuple[int, ...]
    home_patch: int
    basis: str          # measurement basis of every member, "X" or "Z"


@dataclass(frozen=True)
class ParitySet:
    """A check or observable: measurement index set with an id."""
    meas: tuple[int, ...]
    id: int
    deterministic: bool = True


@dataclass
class Circuit:
    layouts: dict[int, PatchLayout]
    instructions: list[Instr] = field(default_factory=list)
    meas_addr: list[tuple[int, int, str]] = field(default_factory=list)  # (patch, qubit, basis)
    detectors: list[Detector] = field(default_factory=list)
    checks: list[ParitySet] = field(default_factory=list)
    observables: list[ParitySet] = field(default_factory=list)
    injections: list[tuple[int, int]] = field(default_factory=list)  # (instr index, resource id)

    @property
    def num_measurements(self) -> int:
        return len(self.meas_addr)

    def qubit_index(self) -> dict[Addr, int]:
        """Dense global index for every (patch, qubit) address."""
        idx: dict[Addr, int] = {}
        for patch in sorted(self.layouts):
            for q in range(self.layouts[patch].num_qubits):
                idx[(patch, q)] = len(idx)
        return idx

    # -- construction helpers used by the builders ------------------------
    def emit(self, op: str, targets: tuple[Addr, ...] = (), p: float = 0.0) -> None:
        if op not in OPS:
            raise ValueError(f"unknown opcode {op}")
        if op == "INJECT_Z" and p != 0:
            raise ValueError("INJECT_Z carries no rate: the sampler sets the input error rate")
        self.instructions.append(Instr(op, targets, p))

    def measure(self, patch: int, qubit: int, basis: str, p_flip: float) -> int:
        self.emit("MX" if basis == "X" else "MZ", ((patch, qubit),), p_flip)
        self.meas_addr.append((patch, qubit, basis))
        return len(self.meas_addr) - 1

