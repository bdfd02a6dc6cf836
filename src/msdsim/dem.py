"""Error-mechanism enumeration by one backward sensitivity pass.

Sweeping the instructions in reverse, each qubit carries two bitsets over the
signature columns (detectors, then observables, then checks): the columns an
X error on it at that point would flip, and those a Z error would flip.  A
measurement XORs its own column row into the X set (MZ) or Z set (MX) of its
qubit, a reset clears both sets, and a CNOT pulls X sensitivity back onto
the control and Z sensitivity onto the target.  Each elementary fault
(depolarizing term, measurement flip, injected logical Z) then reads its
signature off the sets at its site.  X and Z frames never mix (the circuits
use only resets and CNOTs), so each signature splits cleanly into an X-basis
and a Z-basis component by column basis.  Components are merged by identical
signature with XOR-combined probabilities, in forward fault order; the
per-basis component restricted to the fault's own patch is what becomes a
matching-graph edge.  This is the detector-error-model construction of
Gidney, arXiv:2103.02202.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, OPS_RESET


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
    index = circuit.qubit_index()
    nd, no = len(circuit.detectors), len(circuit.observables)
    columns = [*circuit.detectors, *circuit.observables, *circuit.checks]
    col_row = [0] * circuit.num_measurements   # columns each measurement enters
    x_cols = 0                                 # columns of X-basis measurements
    for col, s in enumerate(columns):
        for m in s.meas:
            col_row[m] ^= 1 << col
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

    sx = [0] * len(index)
    sz = [0] * len(index)
    mi = circuit.num_measurements
    for ins in reversed(circuit.instructions):
        op = ins.op
        if op == "CNOT":
            pairs = [(index[ins.targets[k]], index[ins.targets[k + 1]])
                     for k in range(0, len(ins.targets), 2)]
            for c, t in reversed(pairs):
                sx[c] ^= sx[t]
                sz[t] ^= sz[c]
        elif op in OPS_RESET:
            for a in ins.targets:
                sx[index[a]] = sz[index[a]] = 0
        elif op == "MZ" or op == "MX":
            mi -= 1
            q = index[ins.targets[0]]
            if op == "MZ":
                sx[q] ^= col_row[mi]
            else:
                sz[q] ^= col_row[mi]
            if ins.p > 0:
                add_site([(ins.p, ins.targets[0][0], col_row[mi])])
        elif ins.p > 0 and op == "DEPOL1":
            p = ins.p / 3
            site = []
            for a in ins.targets:
                x, z = sx[index[a]], sz[index[a]]
                site += [(p, a[0], x), (p, a[0], x ^ z), (p, a[0], z)]   # X, Y, Z
            add_site(site)
        elif ins.p > 0 and op == "DEPOL2":
            a, b = ins.targets
            xa, za = sx[index[a]], sz[index[a]]
            xb, zb = sx[index[b]], sz[index[b]]
            pa = (0, za, xa, xa ^ za)    # I, Z, X, Y on a
            pb = (0, zb, xb, xb ^ zb)
            p = ins.p / 15
            add_site([(p, a[0], pa[i] ^ pb[j])
                      for i in range(4) for j in range(4) if i or j])
        elif ins.p > 0 and op == "INJECT_Z":
            sig = 0
            for a in ins.targets:
                sig ^= sz[index[a]]
            add_site([(ins.p, ins.targets[0][0], sig)])
    assert mi == 0

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
