"""Error-mechanism enumeration by one backward sensitivity pass.

Sweeping the instructions in reverse (`circuit.sweep_backward`), each qubit
carries two bitsets over the signature columns (detectors, then observables,
then checks): the columns an X error on it at that point would flip, and
those a Z error would flip.  Each elementary fault (depolarizing term,
measurement flip, injected logical Z) reads its signature off the sets at its
site.  X and Z frames never mix (the circuits use only resets and CNOTs), so
each signature splits cleanly into an X-basis and a Z-basis component by
column basis.  Components are merged by identical signature with
XOR-combined probabilities, in forward fault order; the per-basis component
restricted to the fault's own patch is what becomes a matching-graph edge.
This is the detector-error-model construction of Gidney, arXiv:2103.02202.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import OPS_MEASURE, Circuit, column_rows, sweep_backward


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


def _xor_prob(a: float, b: float) -> float:
    return a * (1 - b) + b * (1 - a)


def _bits(x: int) -> list[int]:
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def enumerate_error_mechanisms(circuit: Circuit) -> list[ErrorMechanism]:
    nd, no = len(circuit.detectors), len(circuit.observables)
    columns = [*circuit.detectors, *circuit.observables, *circuit.checks]
    col_row = column_rows(circuit, columns)    # columns each measurement enters
    x_cols = 0                                 # columns of X-basis measurements
    for col, s in enumerate(columns):
        basis = s.basis if col < nd else circuit.meas_addr[s.meas[0]][2]
        if basis == "X":
            x_cols |= 1 << col

    # Per (origin, basis, signature part), the probabilities of the faults
    # with that component, in reverse forward order: the sweep visits sites
    # backwards and each site's (prob, origin, signature) terms back to front.
    parts: dict[tuple[int, str, int], list[float]] = {}

    def add_site(site: list[tuple[float, int, int]]) -> None:
        for p, origin, sig in reversed(site):
            for basis, part in (("X", sig & x_cols), ("Z", sig & ~x_cols)):
                if part:
                    parts.setdefault((origin, basis, part), []).append(p)

    nq = len(circuit.qubit_index())
    sx, sz = [0] * nq, [0] * nq
    for ins, qs, mi in sweep_backward(circuit, col_row, sx, sz):
        op = ins.op
        if ins.p == 0:
            continue
        if op in OPS_MEASURE:
            add_site([(ins.p, ins.targets[0][0], col_row[mi])])
        elif op == "DEPOL1":
            p = ins.p / 3
            site = []
            for a, q in zip(ins.targets, qs):
                x, z = sx[q], sz[q]
                site += [(p, a[0], x), (p, a[0], x ^ z), (p, a[0], z)]   # X, Y, Z
            add_site(site)
        elif op == "DEPOL2":
            a, b = qs
            pa = (0, sz[a], sx[a], sx[a] ^ sz[a])    # I, Z, X, Y on a
            pb = (0, sz[b], sx[b], sx[b] ^ sz[b])
            p = ins.p / 15
            add_site([(p, ins.targets[0][0], pa[i] ^ pb[j])
                      for i in range(4) for j in range(4) if i or j])
        elif op == "INJECT_Z":
            sig = 0
            for q in qs:
                sig ^= sz[q]
            add_site([(ins.p, ins.targets[0][0], sig)])

    det_home = [d.home_patch for d in circuit.detectors]
    out = []
    for (origin, basis, part), probs in parts.items():
        p = 0.0
        for q in reversed(probs):     # merge in forward fault order
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
