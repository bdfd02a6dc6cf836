"""Forward-propagation error-mechanism enumeration: the differential oracle
for `msdsim.dem.enumerate_error_mechanisms`.

Every elementary fault (depolarizing term, measurement flip, injected logical
Z) is propagated forward through the circuit as a row of dense X/Z frame
planes; recorded measurement flips (`forward_faults`) give the fault's
detector/check/observable signature.  Slow and memory-hungry (O(faults x
qubits) bytes), but each fault is simulated directly, so it is the reference
that the fault table's rows (`msdsim.sampler.fault_table`) and the error
mechanisms merged from them must reproduce exactly.
"""
from __future__ import annotations

import numpy as np

from msdsim.circuit import Circuit, OPS_MEASURE, OPS_RESET
from msdsim.dem import ErrorMechanism

# (x_a, z_a, x_b, z_b) for the 15 non-identity two-qubit Pauli terms.
_TWO_QUBIT_TERMS = tuple(
    (xa, za, xb, zb)
    for xa in (0, 1) for za in (0, 1) for xb in (0, 1) for zb in (0, 1)
    if (xa, za, xb, zb) != (0, 0, 0, 0)
)
_ONE_QUBIT_TERMS = ((1, 0), (1, 1), (0, 1))  # X, Y, Z


def _xor_prob(a: float, b: float) -> float:
    """Probability that exactly one of two independent events fires."""
    return a * (1 - b) + b * (1 - a)


def forward_faults(circuit: Circuit) -> tuple[list[tuple], np.ndarray]:
    """Every elementary fault with p > 0 and every injection (rate 0 here:
    the sampler sets it per run), in forward order, and their measurement
    flips.

    Returns `(faults, meas_flips)`: each fault is `(instr index, prob, origin
    patch, [(qubit, dx, dz), ...], flipped measurement or None)`, listed per
    instruction by target, then by term (X, Y, Z for DEPOL1; the 15
    `(x_a, z_a, x_b, z_b)` terms for DEPOL2); `meas_flips[f]` is the bool row
    of measurements fault f flips.
    """
    index = circuit.qubit_index()
    nq = len(index)
    nm = circuit.num_measurements

    # Pass 1: collect fault descriptors (instr position, insertion payload).
    faults: list[tuple[int, float, int, list[tuple[int, int, int]], int | None]] = []
    # each: (instr idx, prob, origin patch, [(qubit, dx, dz)...], meas flip idx)
    mi = 0
    for ii, ins in enumerate(circuit.instructions):
        if ins.op == "DEPOL1" and ins.p > 0:
            for patch, q in ins.targets:
                gq = index[(patch, q)]
                for dx, dz in _ONE_QUBIT_TERMS:
                    faults.append((ii, ins.p / 3, patch, [(gq, dx, dz)], None))
        elif ins.op == "DEPOL2" and ins.p > 0:
            (pa, qa), (pb, qb) = ins.targets
            ga, gb = index[(pa, qa)], index[(pb, qb)]
            for xa, za, xb, zb in _TWO_QUBIT_TERMS:
                faults.append((ii, ins.p / 15, pa, [(ga, xa, za), (gb, xb, zb)], None))
        elif ins.op == "INJECT_Z":
            patch = ins.targets[0][0]
            rows = [(index[a], 0, 1) for a in ins.targets]
            faults.append((ii, ins.p, patch, rows, None))
        elif ins.op in OPS_MEASURE:
            if ins.p > 0:
                faults.append((ii, ins.p, ins.targets[0][0], [], mi))
            mi += 1

    nf = len(faults)
    x = np.zeros((nf, nq), dtype=bool)
    z = np.zeros((nf, nq), dtype=bool)
    meas_flips = np.zeros((nf, nm), dtype=bool)
    # Group fault insertions by instruction for the single propagation pass.
    by_instr: dict[int, list[int]] = {}
    for fi, f in enumerate(faults):
        by_instr.setdefault(f[0], []).append(fi)

    mi = 0
    for ii, ins in enumerate(circuit.instructions):
        for fi in by_instr.get(ii, ()):
            _, _, _, payload, flip_meas = faults[fi]
            for gq, dx, dz in payload:
                if dx:
                    x[fi, gq] ^= True
                if dz:
                    z[fi, gq] ^= True
            if flip_meas is not None:
                meas_flips[fi, flip_meas] = True
        if ins.op in OPS_RESET:
            cols = [index[a] for a in ins.targets]
            x[:, cols] = False
            z[:, cols] = False
        elif ins.op == "CNOT":
            for k in range(0, len(ins.targets), 2):
                c, t = index[ins.targets[k]], index[ins.targets[k + 1]]
                x[:, t] ^= x[:, c]
                z[:, c] ^= z[:, t]
        elif ins.op in OPS_MEASURE:
            gq = index[ins.targets[0]]
            plane = z if ins.op == "MX" else x
            meas_flips[:, mi] ^= plane[:, gq]
            mi += 1
    return faults, meas_flips


def enumerate_error_mechanisms(circuit: Circuit) -> list[ErrorMechanism]:
    faults, meas_flips = forward_faults(circuit)
    nf = len(faults)

    def set_flips(sets):
        out = np.zeros((nf, len(sets)), dtype=bool)
        for si, s in enumerate(sets):
            for m in s.meas:
                out[:, si] ^= meas_flips[:, m]
        return out

    det_flips = set_flips(circuit.detectors)
    obs_flips = set_flips(circuit.observables)
    check_flips = set_flips(circuit.checks)
    det_basis = np.array([d.basis == "X" for d in circuit.detectors])
    det_home = np.array([d.home_patch for d in circuit.detectors])
    obs_basis = np.array([circuit.meas_addr[o.meas[0]][2] == "X"
                          for o in circuit.observables])
    check_basis = np.array([circuit.meas_addr[c.meas[0]][2] == "X"
                            for c in circuit.checks])

    merged: dict[tuple, float] = {}
    for fi, (_, p, origin, _, _) in enumerate(faults):
        if p == 0:
            continue    # an injection: the sampler fires it, the DEM never sees it
        dets = np.flatnonzero(det_flips[fi])
        obs = np.flatnonzero(obs_flips[fi])
        chk = np.flatnonzero(check_flips[fi])
        for is_x, basis in ((True, "X"), (False, "Z")):
            bd = dets[det_basis[dets] == is_x]
            bo = obs[obs_basis[obs] == is_x]
            bc = chk[check_basis[chk] == is_x]
            if not (bd.size or bo.size or bc.size):
                continue
            home = tuple(int(d) for d in bd if det_home[d] == origin)
            foreign = tuple(int(d) for d in bd if det_home[d] != origin)
            obs_mask = sum(1 << int(o) for o in bo)
            check_mask = sum(1 << int(c) for c in bc)
            key = (origin, basis, home, foreign, obs_mask, check_mask)
            merged[key] = _xor_prob(merged.get(key, 0.0), p)

    return [
        ErrorMechanism(prob=p, origin_patch=k[0], basis=k[1], home_dets=k[2],
                       foreign_dets=k[3], obs_mask=k[4], check_mask=k[5])
        for k, p in sorted(merged.items())
    ]
