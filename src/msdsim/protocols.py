"""Logical-level 7-to-1 and 15-to-1 distillation protocols.

Defines the CNOT networks, post-selection checks and frame rules, closed-form
output-error formulas, and an exhaustive enumeration oracle that recovers the
formulas from first principles (tableau simulation of every error pattern).

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
from math import comb

import numpy as np

from .pauli import CliffordGate, StabilizerTableau

SEVEN_TO_ONE = "SevenToOne"
FIFTEEN_TO_ONE = "FifteenToOne"


@dataclass(frozen=True)
class ProtocolSpec:
    kind: str
    num_data: int                       # data qubits incl. the output qubit 0
    init_plus: frozenset[int]           # data qubits initialised |+>; rest |0>
    cnot_layers: tuple[tuple[tuple[int, int], ...], ...]  # (control, target) per barrier interval
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


@dataclass
class ShotRecord:
    accepted: bool
    output_error: bool


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


def cnot_sublayers(spec: ProtocolSpec) -> tuple[tuple[tuple[int, int], ...], ...]:
    """CNOT layers split into simultaneously applicable sub-layers.

    Within one barrier interval no qubit may appear twice in a sub-layer.
    """
    out = []
    for layer in spec.cnot_layers:
        subs: list[list[tuple[int, int]]] = []
        for c, t in layer:
            for sub in subs:
                if all(c not in pair and t not in pair for pair in sub):
                    sub.append((c, t))
                    break
            else:
                subs.append([(c, t)])
        out.append(tuple(tuple(s) for s in subs))
    return tuple(out)


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


def _run_circuit(spec: ProtocolSpec, pattern: int, rng: np.random.Generator):
    """Tableau run of the |-> proxy circuit for one injected-error pattern.

    Returns (check_parities, observable_parity).  Parities are raw; callers
    compare against a noiseless reference run.
    """
    nd = spec.num_data
    nr = spec.num_resources
    n_tot = nd + nr
    bases = [spec.init_basis(q) for q in range(nd)]
    # Resource r lives at qubit nd + r; injected Z flips |-> into |+>.
    for r in range(nr):
        bases.append("+" if (pattern >> r) & 1 else "-")
    t = StabilizerTableau(n_tot, bases)
    for layer in spec.cnot_layers:
        for c, tgt in layer:
            t.apply(CliffordGate("CNOT", (c, tgt)))
    for j, r in spec.consumption:
        t.apply(CliffordGate("CNOT", (j, nd + r)))
    rbs = lambda: int(rng.integers(0, 2))
    # The resources are read out as in the protocol, though no parity below
    # reads their bits.
    for r in range(nr):
        t.measure(nd + r, "X", rbs)
    m_bits = np.zeros(nd - 1, dtype=np.uint8)
    for j in range(1, nd):
        m_bits[j - 1] = t.measure(j, "X", rbs)[0]
    m0 = t.measure(0, "X", rbs)[0]
    # Check/frame parities use the data X readouts only.  Combining m and n
    # bits (as in the teleportation-based protocol) is degenerate here: an
    # injected error flips the resource's own bit *and* the kicked-back data
    # parity, so the pair cancels.  The m-parities alone flip iff the error
    # pattern has odd overlap with the check set.
    checks = []
    for ck in spec.checks:
        par = 0
        for j in ck:
            par ^= int(m_bits[j - 1])
        checks.append(par)
    frame = 0
    for j in spec.frame_rule:
        frame ^= int(m_bits[j - 1])
    observable = m0 ^ frame
    return tuple(checks), observable


@lru_cache(maxsize=4)
def _reference_parities(kind: str) -> tuple[tuple[int, ...], int]:
    """(check parities, observable parity) of the noiseless run.

    Deterministic parities do not depend on the RNG; asserted here by running
    twice with different seeds.
    """
    spec = build_protocol(kind)
    a = _run_circuit(spec, 0, np.random.default_rng(11))
    b = _run_circuit(spec, 0, np.random.default_rng(99))
    # Checks and the output observable are stabilizer parities; the frame-rule
    # parity alone is gauge (only its combination with m0 is deterministic).
    assert a == b, "reference parities not deterministic"
    return a


def run_logical_shot(spec: ProtocolSpec, pattern: int,
                     rng: np.random.Generator | None = None) -> ShotRecord:
    """Exact tableau simulation of one shot with the given injected-Z pattern."""
    if pattern < 0 or pattern >= (1 << spec.num_resources):
        raise ValueError("pattern out of range")
    if rng is None:
        rng = np.random.default_rng(0)
    ref_checks, ref_obs = _reference_parities(spec.kind)
    checks, obs = _run_circuit(spec, pattern, rng)
    return ShotRecord(accepted=checks == ref_checks, output_error=bool(obs ^ ref_obs))


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

    def p_accept(self, p: float) -> float:
        k = self.num_resources
        terms = [self.accepted_by_weight[w] * p**w * (1 - p) ** (k - w) for w in range(k + 1)]
        return float(sum(terms))

    def p_out(self, p: float) -> float:
        k = self.num_resources
        err = sum(self.error_by_weight[w] * p**w * (1 - p) ** (k - w) for w in range(k + 1))
        acc = self.p_accept(p)
        return float(err / acc) if acc > 0 else 0.0

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["pattern", "accepted", "output_error"])
        for pat in range(1 << self.num_resources):
            w.writerow([pat, int(self.accepted[pat]), int(self.output_error[pat])])
        return buf.getvalue()


def _single_error_flips(spec: ProtocolSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-resource (check-flip mask, observable flip) from single-error tableau runs."""
    ref_checks, ref_obs = _reference_parities(spec.kind)
    k = spec.num_resources
    check_masks = np.zeros(k, dtype=np.int64)
    obs_flips = np.zeros(k, dtype=bool)
    rng = np.random.default_rng(7)
    for r in range(k):
        checks, obs = _run_circuit(spec, 1 << r, rng)
        mask = 0
        for i, (c, rc) in enumerate(zip(checks, ref_checks)):
            if c != rc:
                mask |= 1 << i
        check_masks[r] = mask
        obs_flips[r] = obs != ref_obs
    return check_masks, obs_flips


@lru_cache(maxsize=4)
def exhaustive_oracle(kind: str) -> OracleTable:
    """Enumerate every injected-error pattern and tabulate accept/error.

    Small instances run the full tableau per pattern.  For 2^15 patterns the
    per-pattern flips are composed linearly from single-error tableau runs
    (Pauli errors act linearly on deterministic parities); the linearity is
    spot-checked against full runs on random multi-error patterns.
    """
    spec = build_protocol(kind)
    k = spec.num_resources
    npat = 1 << k
    if k <= 8:
        accepted = np.zeros(npat, dtype=bool)
        error = np.zeros(npat, dtype=bool)
        rng = np.random.default_rng(3)
        for pat in range(npat):
            rec = run_logical_shot(spec, pat, rng)
            accepted[pat] = rec.accepted
            error[pat] = rec.output_error
        return OracleTable(kind, k, accepted, error)
    check_masks, obs_flips = _single_error_flips(spec)
    pats = np.arange(npat, dtype=np.int64)
    bits = ((pats[:, None] >> np.arange(k)) & 1).astype(bool)
    cmask = np.zeros(npat, dtype=np.int64)
    for r in range(k):
        cmask[bits[:, r]] ^= check_masks[r]
    accepted = cmask == 0
    error = np.zeros(npat, dtype=bool)
    err_par = bits[:, obs_flips].sum(axis=1) % 2
    error = err_par.astype(bool)
    # Linearity spot check against full tableau runs.
    rng = np.random.default_rng(17)
    for pat in rng.integers(0, npat, size=24):
        rec = run_logical_shot(spec, int(pat), rng)
        assert rec.accepted == bool(accepted[pat]), f"linearity violated at {pat}"
        if rec.accepted:
            assert rec.output_error == bool(error[pat]), f"linearity violated at {pat}"
    return OracleTable(kind, k, accepted, error)


def discard_ratio(spec: ProtocolSpec, p: float) -> float:
    """Fraction of shots rejected by post-selection at input error rate p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    return 1.0 - exhaustive_oracle(spec.kind).p_accept(p)


def sample_logical_shots(kind: str, p_in: float, shots: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised logical-level Monte Carlo: (accepted, output_error) planes.

    Error patterns are drawn i.i.d. per resource; outcomes are looked up in
    the exhaustive oracle table (exact tableau-derived semantics).
    """
    table = exhaustive_oracle(kind)
    k = table.num_resources
    bits = np.random.default_rng(rng.integers(0, 2**63)).random((shots, k)) < p_in
    pats = np.zeros(shots, dtype=np.int64)
    for r in range(k):
        pats |= bits[:, r].astype(np.int64) << r
    return table.accepted[pats], table.output_error[pats]
