"""Multi-patch stabilizer-circuit IR with detector/observable/check annotation.

Instructions address qubits as (patch, qubit) pairs.  Measurements are
single-qubit and numbered globally in program order; detectors, checks and
observables are sets of measurement indices.  `sweep_backward` is the one
backward pass over the instruction stream, shared by the exact annotation
check (`validate_annotations`) and the fault table (`sampler.fault_table`),
which the sampler and the error mechanisms (`dem`) both read.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .layout import PatchLayout

# Opcodes.  RX/RZ/RMINUS reset to |+>, |0>, |->.  MX/MZ measure one qubit with
# classical flip probability p.  DEPOL1/DEPOL2 are depolarizing channels.
# INJECT_Z applies Z to every listed qubit jointly with probability p
# (noiseless logical-error injection).
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
        self.instructions.append(Instr(op, targets, p))

    def measure(self, patch: int, qubit: int, basis: str, p_flip: float) -> int:
        self.emit("MX" if basis == "X" else "MZ", ((patch, qubit),), p_flip)
        self.meas_addr.append((patch, qubit, basis))
        return len(self.meas_addr) - 1


def column_rows(circuit: Circuit, columns) -> list[int]:
    """Per measurement, the bitset of the parity sets in `columns` holding it."""
    rows = [0] * circuit.num_measurements
    for col, s in enumerate(columns):
        for m in s.meas:
            rows[m] ^= 1 << col
    return rows


def sweep_backward(circuit: Circuit, col_row: list[int], sx: list[int], sz: list[int]):
    """Walk the instructions in reverse, keeping per-qubit sensitivity bitsets.

    `sx[q]` / `sz[q]` (one int per dense qubit index, all zero on entry) are
    the columns of `col_row` an X / Z error on qubit q at the current point
    would flip.  Yields `(ins, qubits, mi)` per instruction (dense qubit
    indices; `mi` is the index of an MX/MZ's measurement) before applying its
    rule, so the caller sees the sets just after `ins` in forward time.
    MZ / MX XOR their column row into the X / Z set of their qubit, resets
    clear both sets, and a CNOT pulls X sensitivity back onto its control and
    Z sensitivity onto its target, pair by pair in reverse.
    """
    index = circuit.qubit_index()
    mi = circuit.num_measurements
    for ins in reversed(circuit.instructions):
        op = ins.op
        qs = [index[a] for a in ins.targets]
        if op in OPS_MEASURE:
            mi -= 1
        yield ins, qs, mi
        if op == "CNOT":
            for k in range(len(qs) - 2, -1, -2):
                c, t = qs[k], qs[k + 1]
                sx[c] ^= sx[t]
                sz[t] ^= sz[c]
        elif op in OPS_RESET:
            for q in qs:
                sx[q] = sz[q] = 0
        elif op == "MZ":
            sx[qs[0]] ^= col_row[mi]
        elif op == "MX":
            sz[qs[0]] ^= col_row[mi]
    assert mi == 0


def random_parities(circuit: Circuit, sets) -> list[int]:
    """Indices of the parity sets in `sets` that are random on the noiseless
    circuit.

    Exact, by one backward sweep (the gauge check of Stim's error analyser,
    Gidney arXiv:2103.02202): a parity is random iff it is sensitive to a Z
    error just after a Z-basis reset or measurement or at the all-|0> start,
    or to an X error just after an X-basis reset or measurement.  Such an
    error leaves the state unchanged, so a deterministic parity cannot see it.
    """
    nq = len(circuit.qubit_index())
    sx, sz = [0] * nq, [0] * nq
    bad = 0
    for ins, qs, _ in sweep_backward(circuit, column_rows(circuit, sets), sx, sz):
        if ins.op in ("RZ", "MZ"):
            for q in qs:
                bad |= sz[q]
        elif ins.op in ("RX", "RMINUS", "MX"):
            for q in qs:
                bad |= sx[q]
    for q in range(nq):
        bad |= sz[q]
    return [i for i in range(len(sets)) if bad >> i & 1]


def validate_annotations(circuit: Circuit) -> None:
    """Assert every detector, check and deterministic observable has a
    deterministic parity on the noiseless circuit (`random_parities`)."""
    nd, nc = len(circuit.detectors), len(circuit.checks)
    observables = [o for o in circuit.observables if o.deterministic]
    bad = random_parities(circuit, [*circuit.detectors, *circuit.checks, *observables])
    dets = [i for i in bad if i < nd]
    if dets:
        raise AssertionError(f"non-deterministic detectors: {dets}")
    if any(i < nd + nc for i in bad):
        raise AssertionError("non-deterministic check parity")
    if bad:
        raise AssertionError(f"non-deterministic observable {observables[bad[0] - nd - nc].id}")
