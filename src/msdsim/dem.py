"""Error mechanisms: a merge over the circuit's fault table.

`enumerate_error_mechanisms` reads the fault table (`sampler.fault_table`,
the one reader of noise channels) and XORs, per site with p > 0 in forward
order, the signature rows of each Pauli term's components (`TERMS`).  X and
Z frames never mix (the circuits use only resets and CNOTs), so each term's
signature splits cleanly into an X-basis and a Z-basis component by column
basis.  Components are merged by identical signature with XOR-combined
probabilities; the per-basis component restricted to the fault's own patch is
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


def _xor_prob(a: float, b: float) -> float:
    return a * (1 - b) + b * (1 - a)


def enumerate_error_mechanisms(table: FaultTable) -> list[ErrorMechanism]:
    """Merge the table's faults into per-basis error mechanisms."""
    circuit = table.circuit
    nd, no = len(circuit.detectors), len(circuit.observables)
    x_cols = 0                                 # columns of X-basis measurements
    for col, s in enumerate(signature_columns(circuit)):
        basis = s.basis if col < nd else circuit.meas_addr[s.meas[0]][2]
        if basis == "X":
            x_cols |= 1 << col

    # Per (origin, basis, signature part), the probabilities of its faults in
    # forward order.  A term is a set of its site's components, as a bitmask.
    probs: dict[tuple[int, str, int], list[float]] = {}
    terms = [[sum(1 << c for c in np.flatnonzero(t).tolist()) for t in TERMS[k]]
             for k in KINDS]
    ncomp = [TERMS[k].shape[1] for k in KINDS]
    z_cols = ~x_cols
    sigs = table.sigs[table.comp_row].tolist()                  # per component
    for kind, p, origin, first in zip(table.kind.tolist(), table.p.tolist(),
                                      table.origin.tolist(), table.first.tolist()):
        if p == 0:
            continue
        p /= len(terms[kind])
        subset = [0]        # subset[mask]: XOR of the components in mask
        for sig in sigs[first:first + ncomp[kind]]:
            subset += [s ^ sig for s in subset]
        for mask in terms[kind]:
            sig = subset[mask]
            if part := sig & x_cols:
                probs.setdefault((origin, "X", part), []).append(p)
            if part := sig & z_cols:
                probs.setdefault((origin, "Z", part), []).append(p)

    det_home = [d.home_patch for d in circuit.detectors]
    out = []
    for (origin, basis, part), ps in probs.items():
        p = 0.0
        for q in ps:
            p = _xor_prob(p, q)
        dets = _bits(part & ((1 << nd) - 1))
        out.append(ErrorMechanism(
            prob=p, origin_patch=origin, basis=basis,
            home_dets=tuple(d for d in dets if det_home[d] == origin),
            foreign_dets=tuple(d for d in dets if det_home[d] != origin),
            obs_mask=(part >> nd) & ((1 << no) - 1),
            check_mask=part >> (nd + no)))
    out.sort(key=lambda m: (m.origin_patch, m.basis, m.home_dets,
                            m.foreign_dets, m.obs_mask, m.check_mask))
    return out
