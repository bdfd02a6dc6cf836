"""Vectorised Pauli-frame Monte Carlo over whole shot batches.

All randomness is relative to the noiseless reference execution: shots carry
X/Z flip planes per qubit, so every emitted measurement/detector/check/
observable bit is a *flip* bit (identically zero on a noiseless circuit).
Shots are sampled in fixed-size chunks with per-chunk child seeds, so results
are bit-exact reproducible for a given seed whether a run is drawn in one call
or chunk by chunk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit

CHUNK = 1 << 14

# index -> (x_a, z_a, x_b, z_b), the 15 non-identity two-qubit Paulis.
_T2 = np.array([(xa, za, xb, zb)
                for xa in (0, 1) for za in (0, 1) for xb in (0, 1) for zb in (0, 1)
                if (xa, za, xb, zb) != (0, 0, 0, 0)], dtype=np.uint8)


@dataclass
class ShotBatch:
    num_shots: int
    meas_bits: np.ndarray       # packed: (num_meas, ceil(S/8)) uint8
    det_bits: np.ndarray        # packed likewise
    check_bits: np.ndarray
    obs_bits: np.ndarray
    injected: np.ndarray        # (num_resources, S) bool — which injections fired

    def unpack(self, plane: np.ndarray) -> np.ndarray:
        return np.unpackbits(plane, axis=1, count=self.num_shots).astype(bool)


def _sample_chunk(circuit: Circuit, shots: int, rng: np.random.Generator,
                  index: dict, forced: dict[int, np.ndarray] | None) -> tuple:
    nq = len(index)
    x = np.zeros((shots, nq), dtype=bool)
    z = np.zeros((shots, nq), dtype=bool)
    meas = np.zeros((circuit.num_measurements, shots), dtype=bool)
    n_res = len(circuit.injections)
    injected = np.zeros((n_res, shots), dtype=bool)
    inj_rid = dict(circuit.injections)
    mi = 0
    for ii, ins in enumerate(circuit.instructions):
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
            rid = inj_rid[ii]
            if forced is not None:
                fire = forced[rid]
            else:
                fire = rng.random(shots) < ins.p
            injected[rid] = fire
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
    return meas, injected


def _parities(meas: np.ndarray, sets) -> np.ndarray:
    out = np.zeros((len(sets), meas.shape[1]), dtype=bool)
    for si, s in enumerate(sets):
        for m in s.meas:
            out[si] ^= meas[m]
    return out


def sample(circuit: Circuit, shots: int, seed: int,
           forced_injections: np.ndarray | None = None,
           first_chunk: int = 0) -> ShotBatch:
    """Sample `shots` reference-relative shots.

    `forced_injections` (num_resources, shots) bool overrides the random
    injection draws, enabling exhaustive pattern sweeps at the circuit level.
    Chunk k draws from the child seed `[seed, k]`, counting from
    `first_chunk`: with `shots <= CHUNK`, `sample(c, shots, seed, None, k)` is
    chunk k of a longer run.
    """
    index = circuit.qubit_index()
    chunks = []
    # At least one chunk, so zero shots still give planes of the right height.
    for chunk_id, done in enumerate(range(0, max(shots, 1), CHUNK), first_chunk):
        n = min(CHUNK, shots - done)
        rng = np.random.default_rng([seed, chunk_id])
        forced = None
        if forced_injections is not None:
            forced = {r: forced_injections[r, done:done + n]
                      for r in range(forced_injections.shape[0])}
        meas, injected = _sample_chunk(circuit, n, rng, index, forced)
        bits = [meas] + [_parities(meas, sets) for sets in (
            circuit.detectors, circuit.checks, circuit.observables)]
        chunks.append([np.packbits(b, axis=1) for b in bits] + [injected])
    # CHUNK is a multiple of 8, so the chunks' packed planes join byte-aligned.
    return ShotBatch(shots, *(np.concatenate(planes, axis=1) for planes in zip(*chunks)))
