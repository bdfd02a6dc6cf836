"""Pauli-frame Monte Carlo: the statistical oracle for `msdsim.sampler`.

Every shot carries X/Z flip planes per qubit and the instruction stream is
interpreted forward, one dense uniform per noise site per shot.  Slow, but
each fault is simulated directly, so its output distribution is the one the
sparse fault sampler must reproduce (the random streams differ, so the
comparison is statistical).  Injections fire at the `p_in` passed in, as in
the sampler.

`planes` reads a batch's signature ints back into bool planes, bit by bit.
`fault_signatures` and `injection_rows` read single faults' and resources'
signatures off a fault table's component rows (`comp[site, c]`, four per
site), for producers of signatures other than the sampler.
"""
from __future__ import annotations

import numpy as np

from msdsim.circuit import Circuit
from msdsim.sampler import KINDS, TERMS, FaultTable, ShotBatch, signature_columns

# index -> (x_a, z_a, x_b, z_b), the 15 non-identity two-qubit Paulis.
_T2 = np.array([(xa, za, xb, zb)
                for xa in (0, 1) for za in (0, 1) for xb in (0, 1) for zb in (0, 1)
                if (xa, za, xb, zb) != (0, 0, 0, 0)], dtype=np.uint8)


def _sample_chunk(circuit: Circuit, shots: int, rng: np.random.Generator,
                  index: dict, p_in: float) -> np.ndarray:
    nq = len(index)
    x = np.zeros((shots, nq), dtype=bool)
    z = np.zeros((shots, nq), dtype=bool)
    meas = np.zeros((circuit.num_measurements, shots), dtype=bool)
    mi = 0
    for ins in circuit.instructions:
        op = ins.op
        if op == "TICK":
            continue
        if op in ("RX", "RZ", "RMINUS"):
            cols = [index[a] for a in ins.targets]
            x[:, cols] = False
            z[:, cols] = False
        elif op == "CNOT":
            for k in range(0, len(ins.targets), 2):
                c, t = index[ins.targets[k]], index[ins.targets[k + 1]]
                x[:, t] ^= x[:, c]
                z[:, c] ^= z[:, t]
        elif op == "DEPOL1":
            cols = [index[a] for a in ins.targets]
            hit = rng.random((shots, len(cols))) < ins.p
            kind = rng.integers(0, 3, size=(shots, len(cols)), dtype=np.uint8)
            x[:, cols] ^= hit & (kind <= 1)   # X or Y
            z[:, cols] ^= hit & (kind >= 1)   # Y or Z
        elif op == "DEPOL2":
            a, b = index[ins.targets[0]], index[ins.targets[1]]
            hit = rng.random(shots) < ins.p
            term = _T2[rng.integers(0, 15, size=shots)]
            x[:, a] ^= hit & (term[:, 0] == 1)
            z[:, a] ^= hit & (term[:, 1] == 1)
            x[:, b] ^= hit & (term[:, 2] == 1)
            z[:, b] ^= hit & (term[:, 3] == 1)
        elif op == "INJECT_Z":
            fire = rng.random(shots) < p_in
            cols = [index[a] for a in ins.targets]
            z[:, cols] ^= fire[:, None]
        elif op in ("MX", "MZ"):
            q = index[ins.targets[0]]
            bit = z[:, q].copy() if op == "MX" else x[:, q].copy()
            if ins.p > 0:
                bit ^= rng.random(shots) < ins.p
            meas[mi] = bit
            mi += 1
        else:
            raise AssertionError(op)
    return meas


def _parities(meas: np.ndarray, sets) -> np.ndarray:
    out = np.zeros((len(sets), meas.shape[1]), dtype=bool)
    for si, s in enumerate(sets):
        for m in s.meas:
            out[si] ^= meas[m]
    return out


def sample(circuit: Circuit, shots: int, seed: int, p_in: float = 0.0) -> ShotBatch:
    """`shots` reference-relative shots in one frame-simulated chunk, each
    injection firing with probability `p_in`."""
    meas = _sample_chunk(circuit, shots, np.random.default_rng(seed),
                         circuit.qubit_index(), p_in)
    sigs = np.zeros(shots, dtype=object)
    for c, row in enumerate(_parities(meas, signature_columns(circuit))):
        sigs[row] ^= 1 << c
    return ShotBatch(sigs)


def planes(batch: ShotBatch, circuit: Circuit | FaultTable) -> tuple[np.ndarray, ...]:
    """(detectors, checks, observables) of a batch as bool planes, each
    (rows, shots): column c of shot s is bit c of `batch.sigs[s]`, the
    columns in the `signature_columns` order of a circuit or its table."""
    nd, no = len(circuit.detectors), len(circuit.observables)
    cols = len(signature_columns(circuit))
    bits = np.array([batch.sigs >> c & 1 for c in range(cols)],
                    dtype=bool).reshape(cols, len(batch.sigs))
    return bits[:nd], bits[nd + no:], bits[nd:nd + no]


def fault_signatures(table: FaultTable, injections: bool = False) -> list[int]:
    """Per site with p > 0 (and per injection, with `injections`) in forward
    order, per Pauli term of its kind: that fault's signature, the XOR of the
    rows of the components the term applies."""
    out = []
    for kind, p, comp in zip(table.kind, table.p, table.comp):
        if p == 0 and not (injections and KINDS[kind] == "INJECT_Z"):
            continue
        for term in TERMS[KINDS[kind]]:
            sig = 0
            for r in comp[term]:
                sig ^= int(table.sigs[r])
            out.append(sig)
    return out


def injection_rows(table: FaultTable, first_patch: int) -> list[int]:
    """Per resource r, its injection row: the XOR of the rows of the
    injection sites on patch `first_patch + r` (resource r of a distillation
    circuit lives on patch `num_data + r`).  A pattern of injections is the
    XOR of its resources' rows into a shot sampled at p_in = 0."""
    rows: dict[int, int] = {}
    for site in np.flatnonzero(table.kind == KINDS.index("INJECT_Z")):
        r = int(table.origin[site]) - first_patch
        rows[r] = rows.get(r, 0) ^ int(table.sigs[table.comp[site, 0]])
    return [rows[r] for r in range(len(rows))]
