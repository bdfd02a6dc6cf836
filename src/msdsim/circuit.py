"""Multi-patch stabilizer-circuit IR with detector/observable/check annotation.

Instructions address qubits as (patch, qubit) pairs.  Measurements are
single-qubit and numbered globally in program order; detectors, checks and
observables are sets of measurement indices.  `sweep_backward` is the one
backward pass over the instruction stream, shared by the exact annotation
check (`validate_annotations`) and the error-mechanism table (`dem`);
`reference_run` executes the circuit forward on a stabilizer tableau and is
the tests' ground truth for the annotation check.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .layout import PatchLayout
from .pauli import CliffordGate, StabilizerTableau

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
    round: int
    plaq: int           # plaquette index within the home patch


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

    # -- serialization ----------------------------------------------------
    def serialize(self) -> str:
        out = io.StringIO()
        for ins in self.instructions:
            tgt = " ".join(f"{p}:{q}" for p, q in ins.targets)
            if ins.p:
                out.write(f"{ins.op}({ins.p:.12g}) {tgt}\n".rstrip() + "\n")
            else:
                out.write(f"{ins.op} {tgt}".rstrip() + "\n")
        for i, det in enumerate(self.detectors):
            ms = " ".join(map(str, det.meas))
            out.write(f"DETECTOR {i} patch={det.home_patch} basis={det.basis} "
                      f"round={det.round} plaq={det.plaq} {ms}\n")
        for ck in self.checks:
            out.write(f"CHECK {ck.id} " + " ".join(map(str, ck.meas)) + "\n")
        for ob in self.observables:
            det = "" if ob.deterministic else " frame-relative"
            out.write(f"OBSERVABLE {ob.id}{det} " + " ".join(map(str, ob.meas)) + "\n")
        return out.getvalue()


@dataclass
class ReferenceResult:
    meas_bits: np.ndarray
    detector_parity: np.ndarray
    check_parity: np.ndarray
    observable_parity: np.ndarray


def reference_run(circuit: Circuit, seed: int = 0,
                  inject: dict[int, bool] | None = None) -> ReferenceResult:
    """Noiseless tableau execution (noise channels skipped).

    `inject` optionally forces INJECT_Z instructions on or off by instruction
    index; by default none fire.
    """
    index = circuit.qubit_index()
    n = len(index)
    tab = StabilizerTableau(n, ["0"] * n)
    rng = np.random.default_rng(seed)
    rbs = lambda: int(rng.integers(0, 2))
    bits = np.zeros(circuit.num_measurements, dtype=np.uint8)
    mi = 0
    for ii, ins in enumerate(circuit.instructions):
        if ins.op in ("DEPOL1", "DEPOL2", "TICK"):
            continue
        if ins.op == "INJECT_Z":
            if inject and inject.get(ii, False):
                for addr in ins.targets:
                    tab.apply(CliffordGate("Z", (index[addr],)))
            continue
        if ins.op in OPS_RESET:
            basis = "Z" if ins.op == "RZ" else "X"
            want = 1 if ins.op == "RMINUS" else 0
            for addr in ins.targets:
                q = index[addr]
                out, _ = tab.measure(q, basis, rbs)
                if out != want:
                    fix = "X" if basis == "Z" else "Z"
                    tab.apply(CliffordGate(fix, (q,)))
            continue
        if ins.op == "CNOT":
            for k in range(0, len(ins.targets), 2):
                c, t = index[ins.targets[k]], index[ins.targets[k + 1]]
                tab.apply(CliffordGate("CNOT", (c, t)))
            continue
        if ins.op in OPS_MEASURE:
            basis = "X" if ins.op == "MX" else "Z"
            (addr,) = ins.targets
            bits[mi], _ = tab.measure(index[addr], basis, rbs)
            mi += 1
            continue
        raise AssertionError(ins.op)
    assert mi == circuit.num_measurements

    def parity(sets):
        return np.array([int(bits[list(s.meas)].sum() % 2) for s in sets], dtype=np.uint8)

    return ReferenceResult(
        meas_bits=bits,
        detector_parity=parity(circuit.detectors),
        check_parity=parity(circuit.checks),
        observable_parity=np.array(
            [int(bits[list(o.meas)].sum() % 2) for o in circuit.observables], dtype=np.uint8),
    )


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
