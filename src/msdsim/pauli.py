"""Clifford gates and a stabilizer tableau simulator.

A tableau row is a Pauli operator stored as X/Z support bit-vectors plus a
phase, tracked as a power of i (mod 4).  The tableau follows the standard
destabilizer/stabilizer layout: rows 0..n-1 are destabilizers, rows n..2n-1
stabilizers.  `protocols` runs the logical-level distillation circuit on it,
exactly and independently of the surface-code pipeline's backward sweep.
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
