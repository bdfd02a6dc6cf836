"""Multi-patch circuit construction for distillation, memory, and CNOT-block
experiments.

Noise follows the SD6 convention: every syndrome-extraction round is six
sub-steps (ancilla reset, four CNOT sub-steps, ancilla measurement); each live
qubit receives exactly one noise operation per sub-step — 1-qubit depolarizing
after resets, idles and measurements, 2-qubit depolarizing after CNOTs, and a
classical flip on each measurement.  Transversal logical CNOT blocks are
noiseless and instantaneous, and resource-state initialisation is noise-free;
resource input errors enter only through explicit logical-Z injection, whose
rate the sampler sets per run.

Detector sets are derived by back-propagating each plaquette operator through
the transversal CNOTs applied since the previous round: the X plaquette of a
control patch picks up the same-cell X plaquette of the target (and dually for
Z on the target), which yields the three-term cross-patch detectors.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Detector, ParitySet
from .layout import PatchLayout, Plaquette, build_patch
from .protocols import ProtocolSpec


@dataclass(frozen=True)
class NoiseModel:
    p_circuit: float

    def __post_init__(self):
        if not 0.0 <= self.p_circuit <= 1.0:
            raise ValueError("noise strengths must be probabilities")


class MultiPatchBuilder:
    """Stateful constructor tracking pending CNOT layers and the
    per-plaquette measurement history needed for detector emission."""

    def __init__(self, layouts: dict[int, PatchLayout], noise: NoiseModel):
        self.circuit = Circuit(layouts=dict(layouts))
        self.noise = noise
        self.init_basis: dict[int, str] = {}
        self.prev_meas: dict[tuple[int, int], int] = {}
        self.pending: list[tuple[int, int]] = []  # transversal CNOTs since last round

    # -- primitive stages -------------------------------------------------
    def init_patch(self, patch: int, basis: str, noisy: bool = True) -> None:
        """Reset all data qubits: basis '0' -> |0>, '+' -> |+>, '-' -> |->."""
        lay = self.circuit.layouts[patch]
        op = {"0": "RZ", "+": "RX", "-": "RMINUS"}[basis]
        addrs = tuple((patch, q) for q in range(lay.num_data))
        self.circuit.emit(op, addrs)
        self.init_basis[patch] = "Z" if basis == "0" else "X"
        if noisy and self.noise.p_circuit > 0:
            self.circuit.emit("DEPOL1", addrs, self.noise.p_circuit)

    def inject_logical_z(self, patch: int) -> None:
        lay = self.circuit.layouts[patch]
        addrs = tuple((patch, q) for q in lay.logical_z_support)
        self.circuit.emit("INJECT_Z", addrs)

    def transversal_cnot(self, cp: int, tp: int) -> None:
        lc, lt = self.circuit.layouts[cp], self.circuit.layouts[tp]
        if lc.d != lt.d:
            raise ValueError("transversal CNOT requires equal distances")
        pairs = []
        for q in range(lc.num_data):
            pairs.extend([(cp, q), (tp, q)])
        self.circuit.emit("CNOT", tuple(pairs))
        self.pending.append((cp, tp))

    def se_round(self, patches: list[int]) -> None:
        """One full syndrome-extraction round on the given live patches."""
        p = self.noise.p_circuit
        c = self.circuit
        self.circuit.emit("TICK")

        def idle(addrs):
            if p > 0 and addrs:
                c.emit("DEPOL1", tuple(addrs), p)

        # Sub-step 1: ancilla reset (X plaquettes to |+>, Z to |0>); data idles.
        for pk in patches:
            lay = self.circuit.layouts[pk]
            xa = tuple((pk, q.ancilla) for q in lay.x_plaquettes)
            za = tuple((pk, q.ancilla) for q in lay.z_plaquettes)
            if xa:
                c.emit("RX", xa)
            if za:
                c.emit("RZ", za)
            idle(xa + za)
            idle([(pk, q) for q in range(lay.num_data)])
        # Sub-steps 2-5: plaquette CNOTs in schedule order.
        schedules = {pk: [(plq, plq.schedule()) for plq in self.circuit.layouts[pk].plaquettes]
                     for pk in patches}
        for step in range(4):
            for pk in patches:
                lay = self.circuit.layouts[pk]
                busy = set()
                for plq, schedule in schedules[pk]:
                    dq = schedule[step]
                    if dq is None:
                        continue
                    if plq.kind == "X":
                        pair = ((pk, plq.ancilla), (pk, dq))
                    else:
                        pair = ((pk, dq), (pk, plq.ancilla))
                    c.emit("CNOT", pair)
                    if p > 0:
                        c.emit("DEPOL2", pair, p)
                    busy.update(q for _, q in pair)
                idle([(pk, q) for q in range(lay.num_qubits) if q not in busy])
        # Sub-step 6: ancilla measurement; data idles.
        new_meas: dict[tuple[int, int], int] = {}
        for pk in patches:
            lay = self.circuit.layouts[pk]
            for pi, plq in enumerate(lay.plaquettes):
                new_meas[(pk, pi)] = c.measure(pk, plq.ancilla, plq.kind, p)
            idle([(pk, q) for q in range(lay.num_data)])

        for pk in patches:
            lay = self.circuit.layouts[pk]
            for pi, plq in enumerate(lay.plaquettes):
                self._emit_round_detector(pk, pi, plq, new_meas[(pk, pi)])
        self.prev_meas.update(new_meas)
        self.pending = []

    def _emit_round_detector(self, patch: int, pi: int, plq: Plaquette, m_new: int) -> None:
        terms = [m_new]
        # Patches whose same-cell plaquette enters the pulled-back operator.
        mask = _pull_back(1 << patch, self.pending, plq.kind)
        for pk in (q for q in range(mask.bit_length()) if mask >> q & 1):
            prev = self.prev_meas.get((pk, pi))
            if prev is not None:
                terms.append(prev)
            elif self.init_basis.get(pk) == plq.kind:
                pass  # value fixed by initialisation; contributes no measurement
            else:
                return  # unresolvable prior value: parity not deterministic
        self.circuit.detectors.append(Detector(
            meas=tuple(sorted(terms)), home_patch=patch, basis=plq.kind))

    def readout_patch(self, patch: int, basis: str) -> list[int]:
        """Transversally measure all data qubits; returns per-qubit measurement
        indices and emits the final plaquette-reconstruction detectors."""
        assert not self.pending, "transversal CNOTs must be followed by a round"
        lay = self.circuit.layouts[patch]
        meas = [self.circuit.measure(patch, q, basis, self.noise.p_circuit)
                for q in range(lay.num_data)]
        for pi, plq in enumerate(lay.plaquettes):
            if plq.kind != basis:
                continue
            prev = self.prev_meas.get((patch, pi))
            if prev is None:
                continue
            terms = sorted([meas[q] for q in plq.data] + [prev])
            self.circuit.detectors.append(Detector(
                meas=tuple(terms), home_patch=patch, basis=basis))
        return meas

    def finish(self) -> Circuit:
        """The built circuit, its detectors renumbered into slot order: a
        stable sort by basis, X graphs ascending by home patch and Z graphs
        descending, so each matching graph's detectors are one contiguous id
        range, ascending by emission.  An X detector pulled back through a
        CNOT spreads control→target and a Z detector target→control, and
        every CNOT's control has the lower patch id: so a fault homed on an
        X graph flips detectors of lower-patch X graphs only, one homed on a
        Z graph those of higher-patch Z graphs only, and in this order every
        such flip lands below its own graph's slots."""
        self.circuit.detectors.sort(
            key=lambda d: (d.basis, d.home_patch if d.basis == "X" else -d.home_patch))
        return self.circuit


# -- experiment circuits ---------------------------------------------------

def build_memory_circuit(d: int, rounds: int, noise: NoiseModel) -> Circuit:
    """Single-patch |0> memory: init, `rounds` SE rounds, transversal Z readout
    with the logical-Z observable."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    lay = build_patch(d)
    b = MultiPatchBuilder({0: lay}, noise)
    b.init_patch(0, "0")
    for _ in range(rounds):
        b.se_round([0])
    meas = b.readout_patch(0, "Z")
    b.circuit.observables.append(ParitySet(
        meas=tuple(meas[q] for q in lay.logical_z_support), id=0))
    return b.finish()


def _apply_protocol_layers(b: MultiPatchBuilder, spec: ProtocolSpec,
                           init: dict[int, str]) -> None:
    """Init each data patch q to `init[q]` + SE round, then each barrier
    group of transversal CNOTs followed by one SE round on the data patches."""
    data_patches = list(init)
    for q, basis in init.items():
        b.init_patch(q, basis)
    b.se_round(data_patches)
    for layer in spec.cnot_layers:
        for c, t in layer:
            b.transversal_cnot(c, t)
        b.se_round(data_patches)


def build_distillation_circuit(spec: ProtocolSpec, d: int, noise: NoiseModel) -> Circuit:
    """Full distillation run: protocol CNOT network, resource injection and
    consumption, one final SE round on every patch, transversal X readout,
    the checks and one observable, the output (id 0): the patch-0 X chain
    times the frame-rule chains, whose parity alone is gauge."""
    lay = build_patch(d)
    k = spec.num_resources
    all_patches = list(range(spec.num_data + k))
    b = MultiPatchBuilder({p: lay for p in all_patches}, noise)
    _apply_protocol_layers(b, spec, {q: spec.init_basis(q) for q in range(spec.num_data)})
    # Resource preparation is noise-exempt; input errors are injected logical Zs.
    # Resource r lives on patch num_data + r.
    for j, r in spec.consumption:
        rp = spec.num_data + r
        b.init_patch(rp, "-", noisy=False)
        b.inject_logical_z(rp)
    for j, r in spec.consumption:
        b.transversal_cnot(j, spec.num_data + r)
    b.se_round(all_patches)

    m_chain: dict[int, tuple[int, ...]] = {}
    for q in all_patches:
        meas = b.readout_patch(q, "X")
        m_chain[q] = tuple(meas[i] for i in lay.logical_x_support)
    c = b.circuit
    for ci, ck in enumerate(spec.checks):
        terms = tuple(m for j in sorted(ck) for m in m_chain[j])
        c.checks.append(ParitySet(meas=terms, id=ci))
    frame = tuple(m for j in sorted(spec.frame_rule) for m in m_chain[j])
    c.observables.append(ParitySet(meas=m_chain[0] + frame, id=0))
    return b.finish()


def _pull_back(mask: int, pairs, basis: str) -> int:
    """A patch-support mask of an X or Z operator pulled backwards through
    the (control, target) CNOT `pairs`, last first: X on a control spreads to
    its target, Z on a target to its control."""
    for c, t in reversed(pairs):
        if basis == "X" and mask >> c & 1:
            mask ^= 1 << t
        elif basis == "Z" and mask >> t & 1:
            mask ^= 1 << c
    return mask


def _web_backprop(mask: int, layers, basis: str) -> list[int]:
    """Patch-support masks of a final logical product, pulled backwards through
    the CNOT layers; index 0 is the pre-network support, index -1 the final."""
    segs = [mask]
    for layer in reversed(layers):
        mask = _pull_back(mask, layer, basis)
        segs.append(mask)
    return segs[::-1]


def _web_volume(mask: int, layers, weights, basis: str) -> int:
    return sum(w * bin(s).count("1")
               for w, s in zip(weights, _web_backprop(mask, layers, basis)))


def minimal_web_observables(spec: ProtocolSpec) -> dict[str, list[tuple[int, int]]]:
    """Assign each patch its minimum-volume Pauli-web observable across the
    two benchmark runs.

    Any product of final logicals is deterministic in an all-|0> (or all-|+>)
    run, so the observable for a patch is a free choice among the final
    logical products containing that patch's readout chain; picking the
    product whose web sweeps the least spacetime volume — in whichever basis
    run achieves it — benchmarks the CNOT block itself rather than the width
    of the webs.  Returns {basis: [(patch, final-support mask), ...]}."""
    n, layers = spec.num_data, spec.cnot_layers
    # Rounds swept per segment: init + first SE round, one SE round per CNOT
    # layer, and the trailing SE round + readout on the final support.
    weights = [2] + [1] * (len(layers) - 1) + [3]
    best: dict[int, tuple[int, str, int]] = {}
    for basis in ("Z", "X"):
        for m in range(1, 1 << n):
            vol = _web_volume(m, layers, weights, basis)
            for q in range(n):
                if (m >> q) & 1 and (q not in best or (vol, basis, m) < best[q]):
                    best[q] = (vol, basis, m)
    out: dict[str, list[tuple[int, int]]] = {"Z": [], "X": []}
    for q in sorted(best):
        _, basis, m = best[q]
        out[basis].append((q, m))
    return out


def build_cnot_subcircuit_experiment(spec: ProtocolSpec, d: int, noise: NoiseModel,
                                     basis: str = "Z") -> Circuit:
    """The pure transversal-CNOT block of the protocol, padded to the same
    round count as the full circuit, with one logical-readout observable per
    patch.

    With the protocol's mixed |+>/|0> initialisation no single-patch readout
    parity is deterministic (the patches end up mutually entangled), so the
    stabilizer-flow benchmark runs the block in two bases instead: all
    patches |0> with Z readout (basis="Z") or all |+> with X readout
    (basis="X").  Each observable is a minimum-volume Pauli web terminating in
    a product of final logical readout chains (see minimal_web_observables);
    each patch's observable lives in whichever basis run gives it the smaller
    web, so the two runs jointly carry one observable per patch."""
    if basis not in ("X", "Z"):
        raise ValueError("basis must be 'X' or 'Z'")
    lay = build_patch(d)
    data_patches = list(range(spec.num_data))
    b = MultiPatchBuilder({p: lay for p in data_patches}, noise)
    _apply_protocol_layers(b, spec, dict.fromkeys(data_patches, "+" if basis == "X" else "0"))
    b.se_round(data_patches)  # stand-in for the consumption-stage round
    c = b.circuit
    chain_support = lay.logical_x_support if basis == "X" else lay.logical_z_support
    chains = {}
    for q in data_patches:
        meas = b.readout_patch(q, basis)
        chains[q] = tuple(meas[i] for i in chain_support)
    for patch, mask in minimal_web_observables(spec)[basis]:
        terms = tuple(m for q in data_patches if (mask >> q) & 1 for m in chains[q])
        c.observables.append(ParitySet(meas=terms, id=patch))
    return b.finish()
