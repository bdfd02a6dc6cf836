"""The fault table, and Monte Carlo shots by sparse fault sampling from it.

Every emitted detector/check/observable bit is a *flip* relative to the
noiseless reference execution (identically zero on a noiseless circuit).
`fault_table` is the one reader of the instruction stream.  Its backward
sensitivity sweep carries, per qubit, the signature columns (detectors,
observables, checks; `signature_columns`) an X or a Z error at that point
would flip.  Each noise site reads its components off the sets at its site:
the X and Z parts of every depolarized qubit, a measurement's own classical
flip, an injection's joint Z.  Every site has four component slots, and a
slot its kind does not use holds row 0, the zero signature, so the table is
one (sites, 4) matrix of row ids.  A component's row is its signature; the
sampler and the error-mechanism merge (`dem`) read the same rows.  The table
carries the annotations that name the columns and the mask of X-basis ones,
so later stages read it and never the circuit.  Sites sharing a kind and a
probability form a group; injections carry no rate, and `sample` fires them
at its `p_in`.  The same sweep runs the exact annotation check
(`validate_annotations`), the gauge check of Stim's error analyser: a column
is random on the noiseless circuit iff it is sensitive to an error that
leaves the state unchanged, a Z just after a Z-basis reset or measurement or
at the all-|0> start, or an X just after an X-basis one.

Per chunk, each group's (site, shot) slots fire independently with
probability p, drawn as geometric skips in bounded blocks (exact i.i.d.
Bernoulli, never two draws of one slot); a fired slot picks a uniform
non-identity Pauli term and XORs the rows of the components it applies into
that shot's signature, one int per shot whose bit c is column c of
`signature_columns`: its detectors in slot order, then its observables, then
its checks.  Rows and shots share that one format from the table to the
decoder: one array of ints, int64 while a signature has fewer than 64
columns and Python ints above.  This is frame-free sampling from a
detector-error-style table (Gidney, arXiv:2103.02202).

Shots are sampled in fixed-size chunks with per-chunk child seeds, so results
are bit-exact reproducible for a given seed whether a run is drawn in one call
or chunk by chunk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import OPS_MEASURE, OPS_RESET, Circuit, Detector, ParitySet

CHUNK = 1 << 14
# Geometric draws per block: bounds the event arrays a chunk allocates at any
# noise strength.
_BLOCK = 1024

# Per kind, which of a site's four components each Pauli term applies, one
# row of 4 per term; a site of probability p fires each term with probability
# p / len(terms).  DEPOL1 components are (X, Z, -, -): terms X, Y, Z.  DEPOL2
# components are (X_a, Z_a, X_b, Z_b): the 15 non-identity two-qubit Paulis.
# A measurement FLIP (MX/MZ) and an INJECT_Z have one component and one term.
# No term applies a column its kind leaves unused (`-`, row 0).
KINDS = ("DEPOL1", "DEPOL2", "FLIP", "INJECT_Z")
TERMS = {
    "DEPOL1": np.array([(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0)], dtype=bool),
    "DEPOL2": np.array([(xa, za, xb, zb)
                        for xa in (0, 1) for za in (0, 1) for xb in (0, 1) for zb in (0, 1)
                        if (xa, za, xb, zb) != (0, 0, 0, 0)], dtype=bool),
    "FLIP": np.array([(1, 0, 0, 0)], dtype=bool),
    "INJECT_Z": np.array([(1, 0, 0, 0)], dtype=bool),
}


@dataclass
class ShotBatch:
    sigs: np.ndarray            # (S,) each shot's signature, in the table's dtype

    def unpack(self) -> list[int]:
        """Each shot's signature as one int: bit c is column c of
        `signature_columns`."""
        return self.sigs.tolist()


@dataclass
class FaultTable:
    """Noise sites in forward order and their components' rows.  A row is a
    signature: an int whose bit c is set when the row flips column c of
    `signature_columns`, which the circuit's annotations name."""
    detectors: tuple[Detector, ...]
    observables: tuple[ParitySet, ...]
    checks: tuple[ParitySet, ...]
    x_cols: int                 # bit c set: column c is measured in the X basis
    kind: np.ndarray            # (sites,) int8 index into KINDS
    p: np.ndarray               # (sites,) float64
    origin: np.ndarray          # (sites,) int32 origin patch
    comp: np.ndarray            # (sites, 4) int32 row of each component, 0 if unused
    sigs: np.ndarray            # (rows,) int64 or object: row r's signature; row 0 is 0
    random: int                 # bit c set: column c is random when noiseless


def signature_columns(circuit: Circuit | FaultTable) -> list:
    """The parity sets whose bits a signature holds, in bit order."""
    return [*circuit.detectors, *circuit.observables, *circuit.checks]


def fault_table(circuit: Circuit) -> FaultTable:
    """Build the fault table by one backward sweep.

    Walking the instructions in reverse, `sx[q]` / `sz[q]` are the columns an
    X / Z error on qubit q just after the current instruction would flip.
    MZ / MX XOR their column row into the X / Z set of their qubit, resets
    clear both sets, and a CNOT pulls X sensitivity back onto its control and
    Z sensitivity onto its target, pair by pair in reverse.

    Sites with p = 0 are left out, except injections (p = 0 here too), which
    `sample` fires at its `p_in`.
    """
    index = circuit.qubit_index()
    cols = signature_columns(circuit)
    nd = len(circuit.detectors)
    col_row = [0] * circuit.num_measurements    # per measurement, its columns
    x_cols = 0
    for c, s in enumerate(cols):
        for m in s.meas:
            col_row[m] ^= 1 << c
        basis = s.basis if c < nd else circuit.meas_addr[s.meas[0]][2]
        if basis == "X":
            x_cols |= 1 << c
    # Per site its kind, p and origin, and its four components' row ids, built
    # in reverse: the sweep visits sites backwards.  Components with equal
    # bitsets (most sites between two gates on a qubit) share one row; row 0
    # is the zero signature, which unused components point at.
    kinds: list[int] = []
    ps: list[float] = []
    origins: list[int] = []
    comps: list[int] = []
    row_id: dict[int, int] = {0: 0}
    sx, sz = [0] * len(index), [0] * len(index)
    random, mi = 0, circuit.num_measurements
    for ins in reversed(circuit.instructions):
        op = ins.op
        qs = [index[a] for a in ins.targets]
        if op == "CNOT":
            for k in range(len(qs) - 2, -1, -2):
                c, t = qs[k], qs[k + 1]
                sx[c] ^= sx[t]
                sz[t] ^= sz[c]
            continue
        if op in OPS_RESET:
            for q in qs:
                random |= sz[q] if op == "RZ" else sx[q]
                sx[q] = sz[q] = 0
            continue
        if op in OPS_MEASURE:
            mi, q = mi - 1, qs[0]
            if op == "MZ":
                random |= sz[q]
                sx[q] ^= col_row[mi]
            else:
                random |= sx[q]
                sz[q] ^= col_row[mi]
            op, new = "FLIP", [(ins.targets[0][0], (col_row[mi], 0, 0, 0))]
        elif op == "INJECT_Z":
            row = 0
            for q in qs:
                row ^= sz[q]
            new = [(ins.targets[0][0], (row, 0, 0, 0))]
        elif op == "DEPOL1":
            new = [(a[0], (sx[q], sz[q], 0, 0)) for a, q in zip(ins.targets, qs)]
        elif op == "DEPOL2":
            a, b = qs
            new = [(ins.targets[0][0], (sx[a], sz[a], sx[b], sz[b]))]
        else:
            continue
        if ins.p == 0 and op != "INJECT_Z":
            continue
        code = KINDS.index(op)
        for patch, rows in reversed(new):
            kinds.append(code)
            ps.append(ins.p)
            origins.append(patch)
            comps.extend(row_id.setdefault(r, len(row_id)) for r in reversed(rows))
    assert mi == 0
    for q in range(len(index)):
        random |= sz[q]     # the all-|0> start
    kind, p, origin, comp = (np.array(col[::-1], dtype=dt) for col, dt in zip(
        (kinds, ps, origins, comps), (np.int8, np.float64, np.int32, np.int32)))
    # A signature of fewer than 64 columns fits an int64; wider ones are
    # Python ints.  Shots take the rows' dtype, so a narrow circuit's shots
    # cost 8 bytes each however many of them are nonzero.
    sigs = np.array(list(row_id), dtype=np.int64 if len(cols) < 64 else object)
    return FaultTable(tuple(circuit.detectors), tuple(circuit.observables),
                      tuple(circuit.checks), x_cols, kind, p, origin,
                      comp.reshape(-1, 4), sigs, random)


def validate_annotations(table: FaultTable) -> None:
    """Assert every detector, check and observable of the table has a
    deterministic parity on the noiseless circuit (`FaultTable.random`)."""
    nd, no = len(table.detectors), len(table.observables)
    dets = [i for i in range(nd) if table.random >> i & 1]
    if dets:
        raise AssertionError(f"non-deterministic detectors: {dets}")
    if table.random >> (nd + no):
        raise AssertionError("non-deterministic check parity")
    for i, o in enumerate(table.observables):
        if table.random >> (nd + i) & 1:
            raise AssertionError(f"non-deterministic observable {o.id}")


def _groups(table: FaultTable, p_in: float):
    """Per (kind, p), in order of first occurrence: kind, the rate its sites
    fire at (`p_in` for the injections), and the component rows of its sites
    in forward order (sites, 4)."""
    by_key: dict[tuple[int, float], list[int]] = {}
    for site, key in enumerate(zip(table.kind.tolist(), table.p.tolist())):
        by_key.setdefault(key, []).append(site)
    for (k, p), sites in by_key.items():
        yield KINDS[k], p_in if KINDS[k] == "INJECT_Z" else p, table.comp[sites]


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


def _sample_chunk(table: FaultTable, groups: list[tuple], shots: int,
                  rng: np.random.Generator) -> np.ndarray:
    sigs = np.zeros(shots, dtype=table.sigs.dtype)
    for kind, p, comps in groups:
        terms = TERMS[kind]
        for slots in _fired(rng, p, len(comps) * shots):
            site, shot = np.divmod(slots, shots)
            ev, comp = np.divmod(np.flatnonzero(
                terms[rng.integers(0, len(terms), slots.size)]), 4)
            np.bitwise_xor.at(sigs, shot[ev], table.sigs[comps[site[ev], comp]])
    return sigs


def sample(table: FaultTable, shots: int, seed: int, first_chunk: int = 0,
           p_in: float = 0.0) -> ShotBatch:
    """Sample `shots` reference-relative shots from a circuit's fault table.

    Each injection fires independently with probability `p_in` (ValueError
    unless 0 <= p_in <= 1).  Chunk k draws from the child seed `[seed, k]`,
    counting from `first_chunk`: with `shots <= CHUNK`,
    `sample(t, shots, seed, k)` is chunk k of a longer run.  A given
    injection pattern is `sample(…, p_in=0)` XOR its resources' rows.
    """
    if not 0.0 <= p_in <= 1.0:
        raise ValueError(f"p_in must be in [0, 1], not {p_in!r}")
    groups = list(_groups(table, p_in))
    chunks = []
    # At least one chunk, so zero shots still give arrays to join.
    for chunk_id, done in enumerate(range(0, max(shots, 1), CHUNK), first_chunk):
        n = min(CHUNK, shots - done)
        chunks.append(_sample_chunk(table, groups, n, np.random.default_rng([seed, chunk_id])))
    return ShotBatch(np.concatenate(chunks))
