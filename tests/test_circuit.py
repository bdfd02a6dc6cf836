"""Circuit IR, reference execution, and annotation validation tests."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdsim.builders import (MultiPatchBuilder, NoiseModel,
                             build_distillation_circuit, build_memory_circuit)
from msdsim.circuit import Circuit, Detector, ParitySet
from msdsim.layout import PatchLayout, build_patch
from msdsim.protocols import SEVEN_TO_ONE, build_protocol
from msdsim.sampler import fault_table, signature_columns, validate_annotations
from tableau_oracle import reference_run
from test_dem import _random_circuits


def build_se_round(layout: PatchLayout, noise: NoiseModel) -> Circuit:
    """A single detached syndrome-extraction round on one patch."""
    b = MultiPatchBuilder({0: layout}, noise)
    b.se_round([0])
    return b.finish()


def _varying_parities(circuit, seeds=32):
    """Columns of `signature_columns` (detectors, observables, checks) whose
    `reference_run` parity differs across seeds: the ground truth for
    `FaultTable.random`."""
    runs = [reference_run(circuit, seed=s) for s in range(seeds)]
    cols = np.array([np.concatenate([r.detector_parity, r.observable_parity,
                                     r.check_parity]) for r in runs])
    return np.flatnonzero((cols != cols[0]).any(axis=0)).tolist()


class TestCircuitIR:
    def test_unknown_opcode(self):
        c = Circuit(layouts={0: build_patch(3)})
        with pytest.raises(ValueError):
            c.emit("HADAMARD", ((0, 0),))

    def test_inject_z_carries_no_rate(self):
        """An INJECT_Z rate would be ignored, since the sampler sets the
        input error rate, so `emit` rejects one; the builders emit none."""
        c = Circuit(layouts={0: build_patch(3)})
        with pytest.raises(ValueError, match="INJECT_Z"):
            c.emit("INJECT_Z", ((0, 0),), 0.3)
        c.emit("INJECT_Z", ((0, 0),))
        built = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3, NoiseModel(1e-3))
        assert {ins.p for ins in built.instructions if ins.op == "INJECT_Z"} == {0.0}

    def test_measurement_bookkeeping(self):
        c = Circuit(layouts={0: build_patch(3)})
        i0 = c.measure(0, 4, "Z", 0.0)
        i1 = c.measure(0, 5, "X", 0.01)
        assert (i0, i1) == (0, 1)
        assert c.meas_addr == [(0, 4, "Z"), (0, 5, "X")]
        assert c.num_measurements == 2

    def test_qubit_index_dense(self):
        lay = build_patch(3)
        c = Circuit(layouts={0: lay, 2: lay})
        idx = c.qubit_index()
        assert len(idx) == 2 * lay.num_qubits
        assert sorted(idx.values()) == list(range(2 * lay.num_qubits))

    def test_serialize_deterministic(self):
        a = build_memory_circuit(3, 2, NoiseModel(1e-3))
        b = build_memory_circuit(3, 2, NoiseModel(1e-3))
        assert a == b

    def test_noiseless_has_no_noise_ops(self):
        c = build_memory_circuit(3, 2, NoiseModel(0.0))
        ops = {i.op for i in c.instructions}
        assert "DEPOL1" not in ops and "DEPOL2" not in ops


class TestReferenceRun:
    def test_memory_annotations_deterministic(self):
        c = build_memory_circuit(3, 3, NoiseModel(1e-3))
        validate_annotations(fault_table(c))
        ref = reference_run(c)
        assert not ref.detector_parity.any()
        assert not ref.observable_parity.any()

    def test_se_round_measures_all_plaquettes(self):
        c = build_se_round(build_patch(3), NoiseModel(1e-3))
        assert c.num_measurements == 8

    def test_two_noiseless_rounds_detectors_zero(self):
        lay = build_patch(3)
        from msdsim.builders import MultiPatchBuilder
        b = MultiPatchBuilder({0: lay}, NoiseModel(0.0))
        b.init_patch(0, "0")
        b.se_round([0])
        b.se_round([0])
        ref = reference_run(b.finish(), seed=3)
        assert not ref.detector_parity.any()

    def test_seed_independence_of_detectors(self):
        c = build_memory_circuit(3, 2, NoiseModel(0.0))
        a = reference_run(c, seed=1)
        b = reference_run(c, seed=2)
        assert (a.detector_parity == b.detector_parity).all()

    def test_validate_catches_bad_detector(self):
        """A single-measurement detector is rejected exactly where the
        measurement is random: the X-type ancillas of both rounds and the
        nine data readouts, 17 bits that two tableau runs agree on half the
        time."""
        base = build_memory_circuit(3, 2, NoiseModel(0.0))
        rejected, varying = [], []
        for m in range(base.num_measurements):
            c = dataclasses.replace(base, detectors=[
                Detector(meas=(m,), home_patch=0, basis="Z")])
            try:
                validate_annotations(fault_table(c))
            except AssertionError:
                rejected.append(m)
            if _varying_parities(c):
                varying.append(m)
        assert len(varying) == 17
        assert rejected == varying

    def test_frame_observable_is_random(self):
        """The distillation frame observable is annotated non-deterministic;
        claiming otherwise must be caught."""
        c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3, NoiseModel(0.0))
        validate_annotations(fault_table(c))
        assert not all(o.deterministic for o in c.observables)
        c.observables = [dataclasses.replace(o, deterministic=True) for o in c.observables]
        with pytest.raises(AssertionError, match="non-deterministic observable"):
            validate_annotations(fault_table(c))

    def test_validate_names_the_random_column(self):
        """The mask's columns run detectors, observables, checks; each kind
        of random set raises its own message, detectors first, then checks,
        then deterministic observables by id.  A random observable annotated
        non-deterministic passes."""
        base = build_memory_circuit(3, 2, NoiseModel(0.0))
        # The first X-ancilla measurement follows the |0> start: random.
        m = next(i for i, (_, _, basis) in enumerate(base.meas_addr) if basis == "X")
        bad_det = Detector(meas=(m,), home_patch=0, basis="X")
        bad_obs = ParitySet(meas=(m,), id=7)
        good_chk = ParitySet(meas=base.observables[0].meas, id=0)
        bad_chk = ParitySet(meas=(m,), id=0)
        cases = [
            ({"detectors": [*base.detectors[:2], bad_det]}, "non-deterministic detectors: [2]"),
            ({"checks": [bad_chk]}, "non-deterministic check parity"),
            ({"checks": [bad_chk], "observables": [*base.observables, bad_obs]},
             "non-deterministic check parity"),
            ({"checks": [good_chk], "observables": [*base.observables, bad_obs]},
             "non-deterministic observable 7"),
        ]
        for change, message in cases:
            with pytest.raises(AssertionError, match=re.escape(message)):
                validate_annotations(fault_table(dataclasses.replace(base, **change)))
        random_ok = dataclasses.replace(bad_obs, deterministic=False)
        validate_annotations(fault_table(dataclasses.replace(
            base, observables=[*base.observables, random_ok])))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_parities_match_reference_runs(self, data):
        c = data.draw(_random_circuits())
        random = fault_table(c).random
        assert [i for i in range(len(signature_columns(c))) if random >> i & 1] \
            == _varying_parities(c)
