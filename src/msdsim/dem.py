"""Error mechanisms: a merge over the circuit's fault table.

`enumerate_error_mechanisms` reads the fault table (`sampler.fault_table`,
the one reader of noise channels), and only the table: per site its four
component rows, an unused one row 0, whose part is zero.  Each distinct row is
split once into its X-column part and its Z-column part, by the table's
X-basis columns (`FaultTable.x_cols`); a Pauli term's part in one basis is
the XOR of its components' parts in that basis.  Per noise site
with p > 0, in forward order, and per basis, the site's pattern of components
with a nonzero part picks the distinct component subsets its kind's terms
reach (`TERMS`), each with how many terms reach it: a DEPOL2 site whose rows
keep to one basis each adds 3 X parts and 3 Z parts, 4 terms each, not 15
terms twice.  Parts are merged by identical signature per origin and basis,
each term's probability XOR-folded into a running probability in forward
order, so every probability is bit for bit the one of the forward oracle that
folds term by term.  A mechanism is its part: the signature int of the
columns it flips, never split here; the decoder reads its home detectors off
it.  This is the detector-error-model construction of Gidney,
arXiv:2103.02202.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampler import KINDS, TERMS, FaultTable

@dataclass(frozen=True)
class ErrorMechanism:
    """One merged per-basis fault component."""
    prob: float
    origin_patch: int
    basis: str                      # measurement basis of every flipped column
    sig: int                        # bit c set: it flips column c of the table


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


def _fold(table: FaultTable) -> dict[tuple[int, str, int], float]:
    """Per (origin, basis, signature part), the probability that an odd
    number of the table's terms with that part fire: each term's q folded
    into a running probability, sites in forward order.  A site's components
    with a nonzero part in the basis form its pattern, which picks the
    subsets its terms reach."""
    probs: dict[tuple[int, str, int], float] = {}
    reached = [_reached(TERMS[k]) for k in KINDS]
    live = np.flatnonzero(table.p)
    kinds, origins = (col[live].tolist() for col in (table.kind, table.origin))
    qs = (table.p / np.array([len(TERMS[k]) for k in KINDS])[table.kind])[live].tolist()
    comp = table.comp[live]
    rows = table.sigs.tolist()
    for basis, cols in (("X", table.x_cols), ("Z", ~table.x_cols)):
        part_rows = np.array([r & cols for r in rows], dtype=object)
        # Component c of live site i has part parts[4 * i + c].
        parts = part_rows[comp].ravel().tolist()
        patterns = ((part_rows != 0)[comp] @ (1 << np.arange(4))).tolist()
        for kind, q, origin, first, pattern in zip(kinds, qs, origins,
                                                   range(0, len(parts), 4), patterns):
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
    """Merge the table's faults into per-basis error mechanisms, sorted by
    (origin patch, basis, signature)."""
    return [ErrorMechanism(p, origin, basis, sig)
            for (origin, basis, sig), p in sorted(_fold(table).items())]
