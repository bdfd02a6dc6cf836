"""Pauli-frame Monte Carlo: the statistical oracle for `msdsim.sampler`.

Every shot carries X/Z flip planes per qubit and the instruction stream is
interpreted forward, one dense uniform per noise site per shot.  Slow, but
each fault is simulated directly, so its output distribution is the one the
sparse fault sampler must reproduce (the random streams differ, so the
comparison is statistical).  Injections fire at the `p_in` passed in, as in
the sampler.

`planes` reads a batch's signature ints back into bool planes, bit by bit.
"""
from __future__ import annotations

import numpy as np

from msdsim.circuit import Circuit
from msdsim.sampler import ShotBatch, signature_columns

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


def planes(batch: ShotBatch, circuit: Circuit) -> tuple[np.ndarray, ...]:
    """(detectors, checks, observables) of a batch as bool planes, each
    (rows, shots): column c of shot s is bit c of `batch.sigs[s]`, the
    columns in `signature_columns` order."""
    nd, no = len(circuit.detectors), len(circuit.observables)
    cols = len(signature_columns(circuit))
    bits = np.array([batch.sigs >> c & 1 for c in range(cols)],
                    dtype=bool).reshape(cols, len(batch.sigs))
    return bits[:nd], bits[nd + no:], bits[nd:nd + no]
