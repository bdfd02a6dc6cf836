"""Error mechanisms: a merge over the circuit's fault table.

`enumerate_error_mechanisms` reads the fault table (`sampler.fault_table`,
the one reader of noise channels).  Each distinct row is split once into its
X-column part and its Z-column part, by column basis; a Pauli term's part in
one basis is the XOR of its components' parts in that basis.  Per noise site
with p > 0, in forward order, and per basis, the site's pattern of components
with a nonzero part picks the distinct component subsets its kind's terms
reach (`TERMS`), each with how many terms reach it: a DEPOL2 site whose rows
keep to one basis each adds 3 X parts and 3 Z parts, 4 terms each, not 15
terms twice.  Parts are merged by identical signature per origin and basis,
each term's probability XOR-folded into a running probability in forward
order, so every probability is bit for bit the one of the forward oracle that
folds term by term.  The per-basis part restricted to the fault's own patch is
what becomes a matching-graph edge.  This is the detector-error-model
construction of Gidney, arXiv:2103.02202.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import KINDS, TERMS, FaultTable, signature_columns

@dataclass(frozen=True)
class ErrorMechanism:
    """One merged per-basis fault component."""
    prob: float
    origin_patch: int
    basis: str                      # measurement basis of every flipped item
    home_dets: tuple[int, ...]      # detector ids homed to origin_patch
    foreign_dets: tuple[int, ...]   # detector ids homed to other patches
    obs_mask: int                   # bit i set -> observable id i flips
    check_mask: int


def _bits(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _reached(terms: np.ndarray) -> list[list[tuple[tuple[int, ...], int]]]:
    """Indexed by a bitmask of the components with a nonzero part: the
    nonempty subsets of those components that `terms` apply, as component
    indices, each with how many terms apply it."""
    masks = [sum(1 << c for c in np.flatnonzero(t).tolist()) for t in terms]
    out = []
    for nonzero in range(1 << terms.shape[1]):
        counts: dict[int, int] = {}
        for m in masks:
            if m & nonzero:
                counts[m & nonzero] = counts.get(m & nonzero, 0) + 1
        out.append([(_bits(s), n) for s, n in counts.items()])
    return out


def _fold(table: FaultTable, x_cols: int) -> dict[tuple[int, str, int], float]:
    """Per (origin, basis, signature part), the probability that an odd
    number of the table's terms with that part fire: each term's q folded
    into a running probability, sites in forward order.  A site's components
    with a nonzero part in the basis form its pattern, which picks the
    subsets its terms reach."""
    probs: dict[tuple[int, str, int], float] = {}
    reached = [_reached(TERMS[k]) for k in KINDS]
    live = np.flatnonzero(table.p)
    kinds, origins, firsts = (col[live].tolist() for col in (
        table.kind, table.origin, table.first))
    qs = (table.p / np.array([len(TERMS[k]) for k in KINDS])[table.kind])[live].tolist()
    ncomp = np.array([TERMS[k].shape[1] for k in KINDS])[table.kind]
    # Bit c of local[i]: component i is component c of its site.
    local = np.left_shift(1, np.arange(len(table.comp_row)) - np.repeat(table.first, ncomp))
    rows = table.sigs.tolist()
    for basis, cols in (("X", x_cols), ("Z", ~x_cols)):
        part_rows = np.array([r & cols for r in rows], dtype=object)
        parts = part_rows[table.comp_row].tolist()
        nonzero = (part_rows != 0)[table.comp_row]
        patterns = np.add.reduceat(np.where(nonzero, local, 0), table.first)[live].tolist()
        for kind, q, origin, first, pattern in zip(kinds, qs, origins, firsts, patterns):
            for comps, n in reached[kind][pattern]:
                part = 0
                for c in comps:
                    part ^= parts[first + c]
                if part:
                    key = (origin, basis, part)
                    w = probs.get(key, 0.0)
                    for _ in range(n):
                        w = w * (1 - q) + q * (1 - w)
                    probs[key] = w
    return probs


def enumerate_error_mechanisms(table: FaultTable) -> list[ErrorMechanism]:
    """Merge the table's faults into per-basis error mechanisms."""
    circuit = table.circuit
    nd, no = len(circuit.detectors), len(circuit.observables)
    x_cols = 0                                 # columns of X-basis measurements
    for col, s in enumerate(signature_columns(circuit)):
        basis = s.basis if col < nd else circuit.meas_addr[s.meas[0]][2]
        if basis == "X":
            x_cols |= 1 << col
    probs = _fold(table, x_cols)

    det_cols = (1 << nd) - 1
    home = {}                   # per patch, the detectors homed to it
    for i, d in enumerate(circuit.detectors):
        home[d.home_patch] = home.get(d.home_patch, 0) | 1 << i
    out = []
    for (origin, basis, part), p in probs.items():
        dets = part & det_cols
        mine = dets & home.get(origin, 0)
        out.append(ErrorMechanism(
            prob=p, origin_patch=origin, basis=basis,
            home_dets=_bits(mine), foreign_dets=_bits(dets ^ mine),
            obs_mask=(part >> nd) & ((1 << no) - 1),
            check_mask=part >> (nd + no)))
    out.sort(key=lambda m: (m.origin_patch, m.basis, m.home_dets,
                            m.foreign_dets, m.obs_mask, m.check_mask))
    return out
