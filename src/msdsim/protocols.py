"""Logical-level 7-to-1 and 15-to-1 distillation protocols.

Defines the CNOT networks, post-selection checks and frame rules, closed-form
output-error formulas, and an exhaustive enumeration oracle that recovers the
formulas from first principles: every error pattern's checks and output flip
are read off the linear syndrome map of the protocol's classical code (the
[7,4] and [15,11] Hamming codes).

Convention: resource states are logical |-> states consumed via CNOTs whose
controls are the data qubits; an injected Z error re-initialises a resource as
|+>.  Resources are read out in the X basis so that an injected error flips
the resource's own readout bit deterministically; check parities are taken
relative to a noiseless reference run.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .sampler import CHUNK

SEVEN_TO_ONE = "SevenToOne"
FIFTEEN_TO_ONE = "FifteenToOne"


@dataclass(frozen=True)
class ProtocolSpec:
    kind: str
    num_data: int                       # data qubits incl. the output qubit 0
    init_plus: frozenset[int]           # data qubits initialised |+>; rest |0>
    # (control, target) pairs per barrier interval; a layer touches each
    # qubit at most once, so its CNOTs apply simultaneously.
    cnot_layers: tuple[tuple[tuple[int, int], ...], ...]
    consumption: tuple[tuple[int, int], ...]  # (data qubit j, resource index)
    checks: tuple[frozenset[int], ...]  # index sets over data qubits 1..k
    frame_rule: frozenset[int]          # X-logical representative; frame = sum of n_j+m_j over it

    @property
    def num_resources(self) -> int:
        return len(self.consumption)

    @property
    def num_barriers(self) -> int:
        # One syndrome-extraction time step per barrier: the init barrier,
        # one per CNOT layer, and the consumption barrier.
        return len(self.cnot_layers) + 2

    def init_basis(self, qubit: int) -> str:
        return "+" if qubit in self.init_plus else "0"

    def syndrome_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-resource (check mask, output flip) of an injected Z error.

        Resource r is consumed by data qubit j, so its error flips check i
        iff j is in checks[i] (bit i of the mask), and the output iff j is in
        the frame rule.
        """
        check_masks = np.zeros(self.num_resources, dtype=np.int64)
        out_flips = np.zeros(self.num_resources, dtype=bool)
        for j, r in self.consumption:
            check_masks[r] = sum(1 << i for i, ck in enumerate(self.checks) if j in ck)
            out_flips[r] = j in self.frame_rule
        return check_masks, out_flips


def build_protocol(kind: str) -> ProtocolSpec:
    """Return the protocol circuit structure (barrier grouping preserved)."""
    if kind == SEVEN_TO_ONE:
        return ProtocolSpec(
            kind=kind,
            num_data=8,
            init_plus=frozenset({0, 1, 2, 4}),
            cnot_layers=(
                ((1, 5), (2, 6)),
                ((0, 2), (4, 6), (1, 3), (5, 7)),
                ((0, 1), (2, 3), (4, 5), (6, 7)),
            ),
            consumption=tuple((j, j - 1) for j in range(1, 8)),
            checks=(
                frozenset({1, 3, 5, 7}),
                frozenset({2, 3, 6, 7}),
                frozenset({4, 5, 6, 7}),
            ),
            frame_rule=frozenset(range(1, 8)),
        )
    if kind == FIFTEEN_TO_ONE:
        return ProtocolSpec(
            kind=kind,
            num_data=16,
            init_plus=frozenset({0, 1, 2, 4, 8}),
            cnot_layers=(
                ((1, 9), (2, 10), (4, 12)),
                ((0, 4), (1, 5), (2, 6), (8, 12), (9, 13), (10, 14)),
                ((0, 2), (4, 6), (8, 10), (12, 14), (1, 3), (5, 7), (9, 11), (13, 15)),
                ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13), (14, 15)),
            ),
            consumption=tuple((j, j - 1) for j in range(1, 16)),
            checks=(
                frozenset({1, 3, 5, 7, 9, 11, 13, 15}),
                frozenset({2, 3, 6, 7, 10, 11, 14, 15}),
                frozenset({4, 5, 6, 7, 12, 13, 14, 15}),
                frozenset({8, 9, 10, 11, 12, 13, 14, 15}),
            ),
            frame_rule=frozenset(range(1, 8)),
        )
    raise ValueError(f"unknown protocol kind {kind!r}")


def analytic_pout_7to1(p: float) -> float:
    """Exact output error rate of the error-free 7-to-1 circuit."""
    q = 1.0 - p
    num = 7 * p**3 * q**4 + p**7
    den = p**7 + q**7 + 7 * q**3 * p**4 + 7 * q**4 * p**3
    return num / den


def analytic_pout_15to1(p: float) -> float:
    """Exact output error rate of the error-free 15-to-1 circuit."""
    w = 1.0 - 2.0 * p
    num = 1 - 15 * w**7 + 15 * w**8 - w**15
    den = 2 * (1 + 15 * w**8)
    return num / den


def analytic_pout(kind: str, p: float) -> float:
    return analytic_pout_7to1(p) if kind == SEVEN_TO_ONE else analytic_pout_15to1(p)


@dataclass
class OracleTable:
    """Exhaustive pattern table with exact polynomial aggregation."""

    kind: str
    num_resources: int
    accepted: np.ndarray      # bool, 2^k
    output_error: np.ndarray  # bool, 2^k
    # Weight histograms for exact polynomial evaluation.
    accepted_by_weight: np.ndarray = field(init=False)
    error_by_weight: np.ndarray = field(init=False)

    def __post_init__(self):
        k = self.num_resources
        weights = np.zeros(1 << k, dtype=np.int64)
        for b in range(k):
            weights += (np.arange(1 << k) >> b) & 1
        self.accepted_by_weight = np.bincount(weights[self.accepted], minlength=k + 1)
        self.error_by_weight = np.bincount(
            weights[self.accepted & self.output_error], minlength=k + 1)

    def _by_weight(self, counts: np.ndarray, p: float):
        """The probability, at input error rate p, of `counts`' patterns."""
        k = self.num_resources
        return sum(counts[w] * p**w * (1 - p) ** (k - w) for w in range(k + 1))

    def p_accept(self, p: float) -> float:
        return float(self._by_weight(self.accepted_by_weight, p))

    def p_out(self, p: float) -> float:
        err = self._by_weight(self.error_by_weight, p)
        acc = self.p_accept(p)
        return float(err / acc) if acc > 0 else 0.0

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["pattern", "accepted", "output_error"])
        for pat in range(1 << self.num_resources):
            w.writerow([pat, int(self.accepted[pat]), int(self.output_error[pat])])
        return buf.getvalue()


@lru_cache(maxsize=4)
def exhaustive_oracle(kind: str) -> OracleTable:
    """Tabulate accept/error for every injected-error pattern.

    The table is the classical syndrome map of the protocol's code
    (`ProtocolSpec.syndrome_map`): a pattern is accepted iff the XOR of its
    resources' check masks is 0, and it is an output error iff an odd number
    of its resources flip the output.
    """
    spec = build_protocol(kind)
    k = spec.num_resources
    check_masks, out_flips = spec.syndrome_map()
    pats = np.arange(1 << k, dtype=np.int64)
    syndrome = np.zeros(1 << k, dtype=np.int64)
    error = np.zeros(1 << k, dtype=bool)
    for r in range(k):
        fired = ((pats >> r) & 1).astype(bool)
        syndrome[fired] ^= check_masks[r]
        if out_flips[r]:
            error ^= fired
    return OracleTable(kind, k, syndrome == 0, error)


def discard_ratio(spec: ProtocolSpec, p: float) -> float:
    """Fraction of shots rejected by post-selection at input error rate p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    return 1.0 - exhaustive_oracle(spec.kind).p_accept(p)


def sample_logical_shots(kind: str, p_in: float, shots: int,
                         rng: np.random.Generator) -> tuple[int, int]:
    """Vectorised logical-level Monte Carlo: the counts of accepted shots and
    of accepted shots with an output error.

    Error patterns are drawn i.i.d. per resource and looked up in the
    exhaustive oracle table (the exact syndrome-map semantics).  One
    generator draws `CHUNK` shots at a time, so memory does not grow with
    `shots`; row by row, the chunks draw what one (shots, resources) draw
    would.
    """
    table = exhaustive_oracle(kind)
    weights = 1 << np.arange(table.num_resources, dtype=np.int64)
    gen = np.random.default_rng(rng.integers(0, 2**63))
    accepted = errors = 0
    for done in range(0, shots, CHUNK):
        bits = gen.random((min(CHUNK, shots - done), weights.size)) < p_in
        pats = bits @ weights
        acc = table.accepted[pats]
        accepted += int(acc.sum())
        errors += int((acc & table.output_error[pats]).sum())
    return accepted, errors
