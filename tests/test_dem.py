"""Error-mechanism enumeration tests: signatures, merging, statistics, and
equality with the forward-propagation oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dem_oracle import enumerate_error_mechanisms as oracle_mechanisms
from sampler_oracle import planes
from msdsim.builders import (NoiseModel, build_cnot_subcircuit_experiment,
                             build_distillation_circuit, build_memory_circuit)
from msdsim.circuit import Circuit, Detector, ParitySet
from msdsim.dem import _bits, enumerate_error_mechanisms
from msdsim.layout import build_patch
from msdsim.protocols import FIFTEEN_TO_ONE, SEVEN_TO_ONE, build_protocol
from msdsim.sampler import KINDS, fault_table, sample, signature_columns


@pytest.fixture(scope="module")
def memory():
    """A memory circuit, the detector count of its signatures, and its
    mechanisms."""
    c = build_memory_circuit(3, 3, NoiseModel(0.01))
    return c, len(c.detectors), enumerate_error_mechanisms(fault_table(c))


class TestMemoryMechanisms:
    def test_home_detector_count_bounded(self, memory):
        """One patch homes every detector; a mechanism flips at most two of
        them, and the one observable above them, never a check."""
        c, nd, mechs = memory
        assert mechs and not c.checks and len(c.observables) == 1
        assert all(d.home_patch == 0 for d in c.detectors)
        for m in mechs:
            assert len(_bits(m.sig & (1 << nd) - 1)) <= 2
            assert m.origin_patch == 0
            assert m.sig >> nd in (0, 1)
            assert 0.0 < m.prob < 0.5

    def test_basis_matches_detectors(self, memory):
        c, nd, mechs = memory
        for m in mechs:
            for d in _bits(m.sig & (1 << nd) - 1):
                assert c.detectors[d].basis == m.basis

    def test_noiseless_circuit_has_no_mechanisms(self):
        """Also a distillation circuit at p_circuit 0, whatever the p_in of
        the runs it serves: its table's only sites are the injections, which
        carry no rate, so the merge never sees them."""
        c = build_memory_circuit(3, 3, NoiseModel(0.0))
        assert enumerate_error_mechanisms(fault_table(c)) == []
        for protocol in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            c = build_distillation_circuit(build_protocol(protocol), 3, NoiseModel(0.0))
            table = fault_table(c)
            assert len(table.kind) == build_protocol(protocol).num_resources
            assert enumerate_error_mechanisms(table) == []

    def test_observable_flips_need_x_plane(self, memory):
        """The logical-Z readout is only flipped by X-type components."""
        _, nd, mechs = memory
        for m in mechs:
            if m.sig >> nd:
                assert m.basis == "Z"


class TestDetectorRates:
    def test_mechanism_probs_reproduce_detector_rates(self):
        """1 - 2*E[det] must equal prod(1 - 2 p_i) over mechanisms hitting the
        detector (XOR of independent Bernoulli variables)."""
        c = build_memory_circuit(3, 3, NoiseModel(0.01))
        table = fault_table(c)
        mechs = enumerate_error_mechanisms(table)
        nd = len(c.detectors)
        pred = np.ones(nd)
        for m in mechs:
            for d in _bits(m.sig & (1 << nd) - 1):
                pred[d] *= 1 - 2 * m.prob
        shots = 200_000
        batch = sample(table, shots, seed=11)
        mean = planes(batch, c)[0].mean(axis=1)
        want = (1 - pred) / 2
        sigma = np.sqrt(want * (1 - want) / shots)
        z = np.abs(mean - want) / sigma
        assert z.max() < 4.5


class TestInjectionMechanisms:
    """Injections carry no rate in the circuit, so they never enter the merge;
    their detector-silent rows are read off the fault table instead."""

    @staticmethod
    def _injection_rows(circuit, spec):
        """The table, and per resource r the site and row of its injection,
        the one on patch `spec.num_data + r`."""
        table = fault_table(circuit)
        sites = np.flatnonzero(table.kind == KINDS.index("INJECT_Z"))
        return table, {int(table.origin[s]) - spec.num_data:
                       (int(s), int(table.sigs[table.comp[s, 0]])) for s in sites}

    def test_pure_injection_signature(self):
        """With zero circuit noise the only sites are the injected logical Zs:
        one per resource, on its own patch, at p = 0 (the sampler sets the
        rate), detector-silent, flipping only X-basis columns and some check."""
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.0))
        table, rows = self._injection_rows(c, spec)
        assert len(table.kind) == spec.num_resources
        assert sorted(rows) == list(range(spec.num_resources))
        nd, no = len(c.detectors), len(c.observables)
        cols = signature_columns(c)
        for site, row in rows.values():
            assert table.p[site] == 0
            assert row & ((1 << nd) - 1) == 0
            assert all(c.meas_addr[cols[b].meas[0]][2] == "X"
                       for b in range(nd, len(cols)) if row >> b & 1)
            assert row >> (nd + no) != 0, "single injections must be detectable"

    def test_injection_checks_match_protocol(self):
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.0))
        _, rows = self._injection_rows(c, spec)
        nd, no = len(c.detectors), len(c.observables)
        # resource r is consumed into data qubit r+1; check supports are index
        # sets over data qubits 1..k
        masks = [sum(1 << ci for ci, chk in enumerate(spec.checks)
                     if r + 1 in chk)
                 for r in range(spec.num_resources)]
        assert [rows[r][1] >> (nd + no) for r in range(spec.num_resources)] == masks


class TestMerging:
    def test_signatures_unique(self):
        c = build_memory_circuit(3, 2, NoiseModel(0.005))
        mechs = enumerate_error_mechanisms(fault_table(c))
        keys = [(m.origin_patch, m.basis, m.sig) for m in mechs]
        assert len(keys) == len(set(keys))


_ORACLE_CIRCUITS = {
    "memory-d3": lambda: build_memory_circuit(3, 5, NoiseModel(1e-3)),
    "memory-d5": lambda: build_memory_circuit(5, 5, NoiseModel(1e-3)),
    "7to1-d3": lambda: build_distillation_circuit(
        build_protocol(SEVEN_TO_ONE), 3, NoiseModel(1e-3)),
    "15to1-d3": lambda: build_distillation_circuit(
        build_protocol(FIFTEEN_TO_ONE), 3, NoiseModel(3e-3)),
    "noise-free": lambda: build_distillation_circuit(
        build_protocol(SEVEN_TO_ONE), 3, NoiseModel(0.0)),
    # 15-to-1 at p_circuit 0: its fault table's only sites are the injections.
    "injection-only": lambda: build_distillation_circuit(
        build_protocol(FIFTEEN_TO_ONE), 3, NoiseModel(0.0)),
    "cnot-block-Z": lambda: build_cnot_subcircuit_experiment(
        build_protocol(SEVEN_TO_ONE), 3, NoiseModel(1e-3), "Z"),
    "cnot-block-X": lambda: build_cnot_subcircuit_experiment(
        build_protocol(SEVEN_TO_ONE), 3, NoiseModel(1e-3), "X"),
}


class TestOracle:
    """The merge over the fault table must reproduce the forward-propagation
    oracle exactly: same mechanisms, same order, probabilities bit for bit."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_CIRCUITS))
    def test_builder_circuits_equal_oracle(self, name):
        c = _ORACLE_CIRCUITS[name]()
        assert enumerate_error_mechanisms(fault_table(c)) == oracle_mechanisms(c)

    def test_cnot_pairs_sharing_a_qubit_apply_in_order(self):
        """CNOT 0->1 then 1->2 in one instruction carries an X on qubit 0 to
        qubit 2, where MZ detects it."""
        c = Circuit(layouts={0: build_patch(3)})
        c.emit("RZ", ((0, 0), (0, 1), (0, 2)))
        c.emit("DEPOL1", ((0, 0),), 0.1)
        c.emit("CNOT", ((0, 0), (0, 1), (0, 1), (0, 2)))
        mi = c.measure(0, 2, "Z", 0.0)
        c.detectors.append(Detector(meas=(mi,), home_patch=0, basis="Z"))
        mechs = enumerate_error_mechanisms(fault_table(c))
        assert mechs == oracle_mechanisms(c)
        q = 0.1 / 3  # the X and Y terms both flip it
        assert [(m.sig, m.prob) for m in mechs] == [(1, pytest.approx(2 * q * (1 - q)))]

    def test_parity_set_mixing_bases(self):
        """One parity set over an MX and an MZ: a Z error on the MX qubit and
        an X error on the MZ qubit both flip it, so X and Z components alike
        have a part in its basis (X, that of its first measurement).  A second
        set over the MZ alone gives the X error's row a Z part too."""
        c = Circuit(layouts={0: build_patch(3)})
        c.emit("RX", ((0, 1),))
        c.emit("RZ", ((0, 0),))
        c.emit("DEPOL1", ((0, 0), (0, 1)), 0.1)
        c.emit("DEPOL2", ((0, 0), (0, 1)), 0.1)
        mx = c.measure(0, 1, "X", 0.0)
        mz = c.measure(0, 0, "Z", 0.0)
        c.observables.append(ParitySet(meas=(mx, mz), id=0))
        c.observables.append(ParitySet(meas=(mz,), id=1))
        mechs = enumerate_error_mechanisms(fault_table(c))
        assert mechs == oracle_mechanisms(c)
        # No detectors or checks: a signature is its observables.
        assert [(m.basis, m.sig) for m in mechs] == [("X", 1), ("Z", 2)]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_circuits_equal_oracle(self, data):
        c = data.draw(_random_circuits())
        assert enumerate_error_mechanisms(fault_table(c)) == oracle_mechanisms(c)


_PROBS = st.sampled_from([0.0, 0.01, 0.1, 0.3])


@st.composite
def _random_circuits(draw):
    """Small multi-patch circuits: resets mid-circuit, noisy MX/MZ,
    multi-qubit INJECT_Z, CNOT instructions whose pairs share qubits, and
    parity sets mixing both bases and several home patches."""
    n_patches = draw(st.integers(1, 3))
    c = Circuit(layouts={p: build_patch(3) for p in range(n_patches)})
    addr = st.tuples(st.integers(0, n_patches - 1), st.integers(0, 2))
    for _ in range(draw(st.integers(1, 30))):
        op = draw(st.sampled_from(["RX", "RZ", "RMINUS", "CNOT", "DEPOL1",
                                   "DEPOL2", "INJECT_Z", "MX", "MZ"]))
        if op in ("RX", "RZ", "RMINUS"):
            c.emit(op, tuple(draw(st.sets(addr, min_size=1, max_size=3))))
        elif op == "CNOT":
            pairs = draw(st.lists(st.lists(addr, min_size=2, max_size=2, unique=True),
                                  min_size=1, max_size=4))
            c.emit(op, tuple(a for pair in pairs for a in pair))
        elif op == "DEPOL1":
            c.emit(op, tuple(draw(st.sets(addr, min_size=1, max_size=3))), draw(_PROBS))
        elif op == "DEPOL2":
            pair = draw(st.lists(addr, min_size=2, max_size=2, unique=True))
            c.emit(op, tuple(pair), draw(_PROBS))
        elif op == "INJECT_Z":
            patch = draw(st.integers(0, n_patches - 1))
            qs = draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
            c.emit(op, tuple((patch, q) for q in sorted(qs)))
        else:
            patch, q = draw(addr)
            c.measure(patch, q, op[1], draw(_PROBS))
    nm = c.num_measurements
    if nm:
        meas = st.lists(st.integers(0, nm - 1), min_size=1, max_size=4)
        for _ in range(draw(st.integers(0, 6))):
            c.detectors.append(Detector(
                meas=tuple(draw(meas)), home_patch=draw(st.integers(0, n_patches - 1)),
                basis=draw(st.sampled_from("XZ"))))
        for i in range(draw(st.integers(0, 3))):
            c.checks.append(ParitySet(meas=tuple(draw(meas)), id=i))
        for i in range(draw(st.integers(0, 2))):
            c.observables.append(ParitySet(meas=tuple(draw(meas)), id=i))
    return c
