"""Test-only stabilizer tools over `msdsim.pauli`'s tableau.

`PauliString` stores a Pauli as X/Z support bit-vectors plus a phase, a power
of i (mod 4): supports (x, z) and phase k represent
i^k * prod_q X_q^{x_q} Z_q^{z_q}, so Y = i*XZ has (x=1, z=1, phase=1).  With
it come the Pauli algebra (`commutes`, `multiply`, `conjugate`), Pauli errors
on a tableau (`apply_pauli`) and stabilizer-group membership with sign
(`group_contains`).  `reference_run` executes a `Circuit` forward on the
tableau; it is the ground truth for the exact annotation check
(`circuit.random_parities`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from msdsim.circuit import OPS_MEASURE, OPS_RESET, Circuit
from msdsim.pauli import CliffordGate, PauliError, StabilizerTableau


class PauliString:
    """An n-qubit Pauli operator with phase tracked mod 4 (powers of i)."""

    __slots__ = ("num_qubits", "x", "z", "phase")

    def __init__(self, num_qubits: int, x=None, z=None, phase: int = 0):
        self.num_qubits = num_qubits
        self.x = np.zeros(num_qubits, dtype=bool) if x is None else np.asarray(x, dtype=bool).copy()
        self.z = np.zeros(num_qubits, dtype=bool) if z is None else np.asarray(z, dtype=bool).copy()
        if self.x.shape != (num_qubits,) or self.z.shape != (num_qubits,):
            raise PauliError("support length != num_qubits")
        self.phase = phase % 4

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse e.g. "+XIZY" or "-iZZ".  Y contributes i to the phase."""
        phase = 0
        if label.startswith("+"):
            label = label[1:]
        elif label.startswith("-"):
            phase = 2
            label = label[1:]
        if label.startswith("i"):
            phase += 1
            label = label[1:]
        n = len(label)
        p = cls(n)
        p.phase = phase % 4
        for q, ch in enumerate(label.upper()):
            if ch == "X":
                p.x[q] = True
            elif ch == "Z":
                p.z[q] = True
            elif ch == "Y":
                p.x[q] = True
                p.z[q] = True
                p.phase = (p.phase + 1) % 4
            elif ch != "I":
                raise PauliError(f"bad Pauli letter {ch!r}")
        return p

    @classmethod
    def single(cls, num_qubits: int, qubit: int, kind: str) -> "PauliString":
        p = cls(num_qubits)
        if kind in ("X", "Y"):
            p.x[qubit] = True
        if kind in ("Z", "Y"):
            p.z[qubit] = True
        if kind == "Y":
            p.phase = 1
        return p

    def to_label(self) -> str:
        y_count = int(np.count_nonzero(self.x & self.z))
        ph = (self.phase - y_count) % 4
        head = {0: "+", 1: "+i", 2: "-", 3: "-i"}[ph]
        body = "".join(
            "Y" if (xb and zb) else "X" if xb else "Z" if zb else "I"
            for xb, zb in zip(self.x, self.z)
        )
        return head + body

    def copy(self) -> "PauliString":
        return PauliString(self.num_qubits, self.x, self.z, self.phase)

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    def is_identity(self) -> bool:
        return not (self.x.any() or self.z.any())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.num_qubits == other.num_qubits
            and self.phase == other.phase
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.num_qubits, self.phase, self.x.tobytes(), self.z.tobytes()))

    def __repr__(self):
        return f"PauliString({self.to_label()!r})"


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the symplectic product of a and b vanishes."""
    if a.num_qubits != b.num_qubits:
        raise PauliError("length mismatch")
    sym = np.count_nonzero(a.x & b.z) + np.count_nonzero(a.z & b.x)
    return sym % 2 == 0


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b; supports XOR, phase closes mod 4.

    Commuting Z^z factors of a past X^x factors of b contributes (-1)^(z.x).
    """
    if a.num_qubits != b.num_qubits:
        raise PauliError("length mismatch")
    phase = (a.phase + b.phase + 2 * (np.count_nonzero(a.z & b.x) % 2)) % 4
    return PauliString(a.num_qubits, a.x ^ b.x, a.z ^ b.z, phase)


def conjugate(gate: CliffordGate, p: PauliString) -> PauliString:
    """Return g * p * g^dagger."""
    out = p.copy()
    if gate.kind == "CNOT":
        # In the explicit i^p X^x Z^z convention the CNOT image reorders into
        # canonical form without crossing X and Z on the same qubit: no phase.
        c, t = gate.targets
        out.x[t] ^= out.x[c]
        out.z[c] ^= out.z[t]
        return out
    (q,) = gate.targets
    xq, zq = bool(out.x[q]), bool(out.z[q])
    if gate.kind == "H":
        if xq and zq:
            out.phase = (out.phase + 2) % 4
        out.x[q], out.z[q] = zq, xq
    elif gate.kind == "S":
        # X -> Y = iXZ, Y -> -X; both are "+i then toggle Z" in this convention.
        if xq:
            out.phase = (out.phase + 1) % 4
            out.z[q] ^= True
    elif gate.kind == "X":
        if zq:
            out.phase = (out.phase + 2) % 4
    elif gate.kind == "Z":
        if xq:
            out.phase = (out.phase + 2) % 4
    return out


def apply_pauli(t: StabilizerTableau, p: PauliString) -> None:
    """Multiply the state by a Pauli error (flips signs of anticommuting rows)."""
    sym = (t.x @ p.z.astype(np.int8) + t.z @ p.x.astype(np.int8)) % 2
    m = sym.astype(bool)
    t.r[m] = (t.r[m] + 2) % 4


def group_contains(t: StabilizerTableau, p: PauliString) -> tuple[bool, int]:
    """Is +-p in the stabilizer group?  Returns (contained, sign in {+1,-1}).

    If p (up to sign) is not generated, returns (False, 0).
    """
    if p.num_qubits != t.n:
        raise PauliError("length mismatch")
    n = t.n
    acc_x = np.zeros(n, dtype=bool)
    acc_z = np.zeros(n, dtype=bool)
    acc_r = 0
    # Destabilizer row i anticommutes with stabilizer row i only, so the
    # stabilizer factorisation of p is read off from destabilizer overlaps.
    for i in range(n):
        sym = (np.count_nonzero(t.x[i] & p.z) + np.count_nonzero(t.z[i] & p.x)) % 2
        if sym:
            acc_r = t._accumulate(acc_x, acc_z, acc_r, i + n)
    if not (np.array_equal(acc_x, p.x) and np.array_equal(acc_z, p.z)):
        return False, 0
    # acc_r is letterwise; convert before comparing with p's explicit phase.
    acc_phase = (acc_r + int(np.count_nonzero(acc_x & acc_z))) % 4
    delta = (acc_phase - p.phase) % 4
    if delta == 0:
        return True, +1
    if delta == 2:
        return True, -1
    return False, 0


@dataclass
class ReferenceResult:
    meas_bits: np.ndarray
    detector_parity: np.ndarray
    check_parity: np.ndarray
    observable_parity: np.ndarray


def reference_run(circuit: Circuit, seed: int = 0) -> ReferenceResult:
    """Noiseless tableau execution (noise channels and injections skipped)."""
    index = circuit.qubit_index()
    n = len(index)
    tab = StabilizerTableau(n, ["0"] * n)
    rng = np.random.default_rng(seed)
    rbs = lambda: int(rng.integers(0, 2))
    bits = np.zeros(circuit.num_measurements, dtype=np.uint8)
    mi = 0
    for ins in circuit.instructions:
        if ins.op in ("DEPOL1", "DEPOL2", "INJECT_Z", "TICK"):
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
        observable_parity=parity(circuit.observables),
    )
