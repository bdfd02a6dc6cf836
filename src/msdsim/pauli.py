"""Symplectic Pauli algebra and a stabilizer tableau simulator.

Paulis are stored as X/Z support bit-vectors plus a global phase, tracked as a
power of i (mod 4).  A PauliString with supports (x, z) and phase k represents
i^k * prod_q X_q^{x_q} Z_q^{z_q}, so Y = i*XZ has (x=1, z=1, phase=1).

The tableau follows the standard destabilizer/stabilizer layout: rows 0..n-1
are destabilizers, rows n..2n-1 stabilizers.  It is used everywhere in this
package as the exact reference oracle for Clifford circuits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

GATE_KINDS = ("H", "S", "X", "Z", "CNOT")


class PauliError(ValueError):
    """Raised on malformed Pauli/tableau operations (length mismatch etc.)."""


@dataclass(frozen=True)
class CliffordGate:
    kind: str
    targets: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise PauliError(f"unknown gate kind {self.kind!r}")
        want = 2 if self.kind == "CNOT" else 1
        if len(self.targets) != want:
            raise PauliError(f"{self.kind} takes {want} target(s)")
        if self.kind == "CNOT" and self.targets[0] == self.targets[1]:
            raise PauliError("CNOT targets must be distinct")


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


def _g_exponents(x1, z1, x2, z2):
    """Vectorized i-exponent from multiplying single-qubit Paulis (CHP rowsum)."""
    x1 = x1.astype(np.int8)
    z1 = z1.astype(np.int8)
    x2 = x2.astype(np.int8)
    z2 = z2.astype(np.int8)
    g = np.zeros_like(x1)
    # case (x1,z1) == (0,1): g = x2*(1-2*z2)
    m = (x1 == 0) & (z1 == 1)
    g[m] = (x2 * (1 - 2 * z2))[m]
    # case (1,0): g = z2*(2*x2-1)
    m = (x1 == 1) & (z1 == 0)
    g[m] = (z2 * (2 * x2 - 1))[m]
    # case (1,1): g = z2 - x2
    m = (x1 == 1) & (z1 == 1)
    g[m] = (z2 - x2)[m]
    return g


class StabilizerTableau:
    """CHP-style destabilizer/stabilizer tableau over n qubits.

    Row phases are powers of i mod 4; Hermitian generator rows always carry an
    even phase (sign +-1).
    """

    def __init__(self, num_qubits: int, bases: Sequence[str] | None = None):
        """bases: per-qubit initial state, one of '0', '+', '-' (default all '0')."""
        n = num_qubits
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=np.int8)  # phase mod 4
        if bases is None:
            bases = ["0"] * n
        for q, b in enumerate(bases):
            if b == "0":
                self.x[q, q] = True       # destabilizer X_q
                self.z[n + q, q] = True   # stabilizer Z_q
            elif b in ("+", "-"):
                self.z[q, q] = True       # destabilizer Z_q
                self.x[n + q, q] = True   # stabilizer +-X_q
                if b == "-":
                    self.r[n + q] = 2
            else:
                raise PauliError(f"bad initial basis {b!r}")

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
        t.n = self.n
        t.x = self.x.copy()
        t.z = self.z.copy()
        t.r = self.r.copy()
        return t

    def apply(self, gate: CliffordGate) -> None:
        if gate.kind == "CNOT":
            c, t = gate.targets
            flip = self.x[:, c] & self.z[:, t] & ~(self.x[:, t] ^ self.z[:, c])
            self.r[flip] = (self.r[flip] + 2) % 4
            self.x[:, t] ^= self.x[:, c]
            self.z[:, c] ^= self.z[:, t]
            return
        (q,) = gate.targets
        if gate.kind == "H":
            both = self.x[:, q] & self.z[:, q]
            self.r[both] = (self.r[both] + 2) % 4
            tmp = self.x[:, q].copy()
            self.x[:, q] = self.z[:, q]
            self.z[:, q] = tmp
        elif gate.kind == "S":
            both = self.x[:, q] & self.z[:, q]
            self.r[both] = (self.r[both] + 2) % 4
            self.z[:, q] ^= self.x[:, q]
        elif gate.kind == "X":
            m = self.z[:, q]
            self.r[m] = (self.r[m] + 2) % 4
        elif gate.kind == "Z":
            m = self.x[:, q]
            self.r[m] = (self.r[m] + 2) % 4

    def apply_pauli(self, p: PauliString) -> None:
        """Multiply the state by a Pauli error (flips signs of anticommuting rows)."""
        sym = (self.x @ p.z.astype(np.int8) + self.z @ p.x.astype(np.int8)) % 2
        m = sym.astype(bool)
        self.r[m] = (self.r[m] + 2) % 4

    def _rowsum(self, h: int, i: int) -> None:
        """Row h := row i * row h (CHP rowsum with mod-4 phase)."""
        g = _g_exponents(self.x[i], self.z[i], self.x[h], self.z[h])
        self.r[h] = (int(self.r[h]) + int(self.r[i]) + int(g.sum())) % 4
        self.x[h] ^= self.x[i]
        self.z[h] ^= self.z[i]

    def _accumulate(self, acc_x, acc_z, acc_r, i):
        """Multiply accumulator Pauli (in place) by row i; returns new phase."""
        g = _g_exponents(acc_x, acc_z, self.x[i], self.z[i])
        acc_r = (acc_r + int(self.r[i]) + int(g.sum())) % 4
        acc_x ^= self.x[i]
        acc_z ^= self.z[i]
        return acc_r

    def measure(self, qubit: int, basis: str = "Z",
                random_bit_source: Callable[[], int] | None = None) -> tuple[int, bool]:
        """Measure one qubit; returns (outcome, was_deterministic).

        random_bit_source supplies outcome bits for nondeterministic
        measurements; defaults to a module-level error (caller must inject one
        for reproducibility).
        """
        if basis == "X":
            self.apply(CliffordGate("H", (qubit,)))
            out = self.measure(qubit, "Z", random_bit_source)
            self.apply(CliffordGate("H", (qubit,)))
            return out
        if basis != "Z":
            raise PauliError(f"bad measurement basis {basis!r}")
        n = self.n
        q = qubit
        stab_hits = np.flatnonzero(self.x[n:, q]) + n
        if stab_hits.size:
            # Nondeterministic outcome.
            if random_bit_source is None:
                raise PauliError("nondeterministic measurement needs a random bit source")
            p = int(stab_hits[0])
            for i in np.flatnonzero(self.x[:, q]):
                if i != p:
                    self._rowsum(int(i), p)
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, q] = True
            bit = int(random_bit_source()) & 1
            self.r[p] = 2 * bit
            return bit, False
        # Deterministic: accumulate stabilizer rows flagged by destabilizers.
        acc_x = np.zeros(n, dtype=bool)
        acc_z = np.zeros(n, dtype=bool)
        acc_r = 0
        for i in np.flatnonzero(self.x[:n, q]):
            acc_r = self._accumulate(acc_x, acc_z, acc_r, int(i) + n)
        return (1 if acc_r == 2 else 0), True


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
