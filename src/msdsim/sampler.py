"""Monte Carlo shots by sparse fault sampling from a fault table.

Every emitted measurement/detector/check/observable bit is a *flip* relative
to the noiseless reference execution (identically zero on a noiseless
circuit).  `fault_table` finds, by one backward sweep over the measurement
columns (`circuit.sweep_backward`, with `col_row[m] = 1 << m`), the
measurements each component of each noise site flips: the X and Z parts of
every depolarized qubit, a measurement's own classical flip, and an
injection's joint Z.  Sites sharing a kind and a probability form a group.

Per chunk, each group's (site, shot) slots fire independently with
probability p, drawn as geometric skips in bounded blocks (exact i.i.d.
Bernoulli, never two draws of one slot); a fired slot picks a uniform
non-identity Pauli term and XORs the rows of the components it applies into
that shot's bit-packed measurement flips.  Detector, check and observable
planes are XORs of packed measurement rows.  This is frame-free sampling from
a detector-error-style table, as in Stim (Gidney, arXiv:2103.02202).

Shots are sampled in fixed-size chunks with per-chunk child seeds, so results
are bit-exact reproducible for a given seed whether a run is drawn in one call
or chunk by chunk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import OPS_MEASURE, Circuit, sweep_backward

CHUNK = 1 << 14
# Geometric draws per block: bounds the event arrays a chunk allocates at any
# noise strength.
_BLOCK = 1024

# Per kind, the components each Pauli term applies, one row per term drawn
# uniformly.  DEPOL1 components are (X, Z): terms X, Y, Z.  DEPOL2 components
# are (X_a, Z_a, X_b, Z_b): the 15 non-identity two-qubit Paulis.
_TERMS = {
    "DEPOL1": np.array([(1, 0), (1, 1), (0, 1)], dtype=bool),
    "DEPOL2": np.array([(xa, za, xb, zb)
                        for xa in (0, 1) for za in (0, 1) for xb in (0, 1) for zb in (0, 1)
                        if (xa, za, xb, zb) != (0, 0, 0, 0)], dtype=bool),
    "FLIP": np.ones((1, 1), dtype=bool),
    "INJECT_Z": np.ones((1, 1), dtype=bool),
}
# Byte value of shot s's bit in a packed plane (np.packbits' big bit order).
_BIT = np.array([0x80 >> i for i in range(8)], dtype=np.uint8)


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


@dataclass
class SiteGroup:
    """Noise sites of one kind sharing one probability, in forward order."""
    kind: str                   # "DEPOL1", "DEPOL2", "FLIP" (MX/MZ) or "INJECT_Z"
    p: float
    instr: list[int]            # instruction index of each site
    comps: np.ndarray           # (sites, components) row ids into the table
    rids: np.ndarray | None     # INJECT_Z only: resource id of each site


@dataclass
class FaultTable:
    """Component rows as CSR over measurement indices, plus the site groups."""
    groups: list[SiteGroup]
    row_ptr: np.ndarray         # row r flips row_meas[row_ptr[r]:row_ptr[r + 1]]
    row_meas: np.ndarray

    def row(self, r: int) -> np.ndarray:
        return self.row_meas[self.row_ptr[r]:self.row_ptr[r + 1]]


def fault_table(circuit: Circuit) -> FaultTable:
    """Build the fault table by one backward sweep over the measurements.

    Sites with p = 0 are left out, except injections, which forced patterns
    can fire.  Raises ValueError on an INJECT_Z with no `circuit.injections`
    entry.
    """
    nm = circuit.num_measurements
    nq = len(circuit.qubit_index())
    inj_rid = dict(circuit.injections)
    rows: list[int] = []    # component rows as measurement bitsets
    sites = []              # (kind, p, instr, first component row), reversed
    sx, sz = [0] * nq, [0] * nq
    last = len(circuit.instructions) - 1
    for step, (ins, qs, mi) in enumerate(sweep_backward(circuit, [1 << m for m in range(nm)],
                                                        sx, sz)):
        ii = last - step
        op = ins.op
        if op == "INJECT_Z":
            if ii not in inj_rid:
                raise ValueError(f"INJECT_Z at instruction {ii} has no entry in "
                                 "circuit.injections")
            row = 0
            for q in qs:
                row ^= sz[q]
            new = [(row,)]
        elif ins.p == 0:
            continue
        elif op == "DEPOL1":
            new = [(sx[q], sz[q]) for q in qs]
        elif op == "DEPOL2":
            a, b = qs
            new = [(sx[a], sz[a], sx[b], sz[b])]
        elif op in OPS_MEASURE:
            op, new = "FLIP", [(1 << mi,)]
        else:
            continue
        # Reversed per instruction, so reversing `sites` gives forward order.
        for comps in reversed(new):
            sites.append((op, ins.p, ii, len(rows)))
            rows.extend(comps)

    by_key: dict[tuple[str, float], list] = {}
    for kind, p, ii, first in reversed(sites):
        by_key.setdefault((kind, p), []).append((ii, first))
    groups = []
    for (kind, p), ss in by_key.items():
        first = np.array([f for _, f in ss], dtype=np.int64)
        groups.append(SiteGroup(
            kind, p, [ii for ii, _ in ss],
            first[:, None] + np.arange(_TERMS[kind].shape[1]),
            np.array([inj_rid[ii] for ii, _ in ss]) if kind == "INJECT_Z" else None))

    # Rows to sorted measurement indices, a block of rows at a time: find the
    # nonzero 64-bit words of each row, then their bits.
    nwords = nm // 64 + 1     # at least one, so rows with no measurements still reshape
    row_of, meas = [], []
    for lo in range(0, len(rows), 1024):
        blob = b"".join(r.to_bytes(8 * nwords, "little") for r in rows[lo:lo + 1024])
        r_i, w_i = np.nonzero(np.frombuffer(blob, dtype="<u8").reshape(-1, nwords))
        words = np.frombuffer(blob, dtype=np.uint8).reshape(-1, nwords, 8)[r_i, w_i]
        e, bit = np.divmod(np.flatnonzero(
            np.unpackbits(words, axis=1, bitorder="little").view(bool)), 64)
        row_of.append(lo + r_i[e])
        meas.append(w_i[e] * 64 + bit)
    row_of = np.concatenate(row_of) if row_of else np.zeros(0, dtype=np.int64)
    row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=len(rows)), out=row_ptr[1:])
    return FaultTable(groups, row_ptr,
                      np.concatenate(meas) if meas else np.zeros(0, dtype=np.int64))


def _fired(rng: np.random.Generator, p: float, n_slots: int):
    """Yield, in blocks, the slots < n_slots that fire, each independently
    with probability p: positions reached by geometric skips."""
    if p <= 0:
        return
    pos = -1
    while pos < n_slots - 1:
        slots = pos + np.cumsum(rng.geometric(p, _BLOCK))
        pos = int(slots[-1])
        yield slots[:np.searchsorted(slots, n_slots)]


def _xor_rows(plane: np.ndarray, table: FaultTable, rows: np.ndarray,
              shots: np.ndarray) -> None:
    """XOR table row rows[i] into shot shots[i] of the packed plane."""
    starts = table.row_ptr[rows]
    lens = table.row_ptr[rows + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return
    # Position in row_meas of every (event, member) pair.
    pos = np.arange(total) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
    s = np.repeat(shots, lens)
    np.bitwise_xor.at(plane.reshape(-1), table.row_meas[pos] * plane.shape[1] + (s >> 3),
                      _BIT[s & 7])


def _sample_chunk(table: FaultTable, num_meas: int, num_res: int, shots: int,
                  rng: np.random.Generator, forced: np.ndarray | None) -> tuple:
    meas = np.zeros((num_meas, (shots + 7) // 8), dtype=np.uint8)
    injected = np.zeros((num_res, shots), dtype=bool)
    for g in table.groups:
        terms = _TERMS[g.kind]
        if g.kind == "INJECT_Z" and forced is not None:
            fired = np.flatnonzero(forced[g.rids])          # over (sites, shots)
            blocks = [fired[i:i + _BLOCK] for i in range(0, fired.size, _BLOCK)]
        else:
            blocks = _fired(rng, g.p, len(g.instr) * shots)
        for slots in blocks:
            site, shot = np.divmod(slots, shots)
            if g.rids is not None:
                injected[g.rids[site], shot] = True
            if len(terms) > 1:
                ev, comp = np.divmod(np.flatnonzero(
                    terms[rng.integers(0, len(terms), slots.size)]), terms.shape[1])
                site, shot = site[ev], shot[ev]
            else:
                comp = np.zeros_like(site)
            _xor_rows(meas, table, g.comps[site, comp], shot)
    return meas, injected


def _parities(meas: np.ndarray, sets) -> np.ndarray:
    out = np.zeros((len(sets), meas.shape[1]), dtype=meas.dtype)
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
    table = fault_table(circuit)
    chunks = []
    # At least one chunk, so zero shots still give planes of the right height.
    for chunk_id, done in enumerate(range(0, max(shots, 1), CHUNK), first_chunk):
        n = min(CHUNK, shots - done)
        rng = np.random.default_rng([seed, chunk_id])
        forced = None
        if forced_injections is not None:
            forced = forced_injections[:, done:done + n]
        meas, injected = _sample_chunk(table, circuit.num_measurements,
                                       len(circuit.injections), n, rng, forced)
        chunks.append([meas] + [_parities(meas, sets) for sets in (
            circuit.detectors, circuit.checks, circuit.observables)] + [injected])
    # CHUNK is a multiple of 8, so the chunks' packed planes join byte-aligned.
    return ShotBatch(shots, *(np.concatenate(planes, axis=1) for planes in zip(*chunks)))
