"""Multi-patch circuit construction tests: SD6 structure, detectors, checks."""
import pytest

from msdsim.builders import (MultiPatchBuilder, NoiseModel,
                             build_cnot_subcircuit_experiment,
                             build_distillation_circuit, build_memory_circuit,
                             minimal_web_observables)
from msdsim.layout import build_patch
from msdsim.protocols import (FIFTEEN_TO_ONE, SEVEN_TO_ONE, build_protocol)
from msdsim.sampler import fault_table, validate_annotations
from tableau_oracle import reference_run


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        with pytest.raises(ValueError):
            NoiseModel(1.5)


class TestMemoryCircuit:
    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            build_memory_circuit(3, 0, NoiseModel(0.001))

    @pytest.mark.parametrize("rounds", [1, 2, 5])
    def test_detector_count_8_per_round(self, rounds):
        c = build_memory_circuit(3, rounds, NoiseModel(0.001))
        # 4 first-round Z detectors + 8 per bulk round + 4 readout Z detectors
        assert len(c.detectors) == 8 * rounds
        validate_annotations(fault_table(c))

    def test_measurement_count(self):
        c = build_memory_circuit(3, 2, NoiseModel(0.001))
        assert c.num_measurements == 2 * 8 + 9

    def test_observable_is_logical_z(self):
        c = build_memory_circuit(3, 2, NoiseModel(0.001))
        (obs,) = c.observables
        qubits = {c.meas_addr[m][1] for m in obs.meas}
        assert qubits == set(build_patch(3).logical_z_support)


class TestSD6Structure:
    def test_one_noise_op_per_live_qubit_per_substep(self):
        """Every sub-step of an SE round touches each live qubit exactly once
        with one noise channel."""
        lay = build_patch(3)
        b = MultiPatchBuilder({0: lay}, NoiseModel(0.01))
        b.init_patch(0, "0")
        b.se_round([0])
        c = b.circuit
        substep_noise: list[dict] = []
        current: dict = {}
        for ins in c.instructions[2:]:  # skip init reset + its noise
            if ins.op in ("RX", "RZ", "CNOT") and current:
                pass
            if ins.op == "DEPOL1":
                for a in ins.targets:
                    current[a] = current.get(a, 0) + 1
            elif ins.op == "DEPOL2":
                for a in ins.targets:
                    current[a] = current.get(a, 0) + 1
            elif ins.op in ("MX", "MZ"):
                current[ins.targets[0]] = current.get(ins.targets[0], 0) + 1
            if ins.op in ("MX", "MZ") or (ins.op == "DEPOL1" and len(current) == lay.num_qubits):
                substep_noise.append(current)
                current = {}
        for step in substep_noise:
            assert all(v == 1 for v in step.values())

    def test_noiseless_round_has_no_noise(self):
        lay = build_patch(3)
        b = MultiPatchBuilder({0: lay}, NoiseModel(0.0))
        b.init_patch(0, "0")
        b.se_round([0])
        assert not any(i.op.startswith("DEPOL") for i in b.circuit.instructions)


def _injected_patches(c):
    """The patches of the circuit's INJECT_Z instructions, sorted."""
    return sorted(i.targets[0][0] for i in c.instructions if i.op == "INJECT_Z")


class TestDistillationCircuit:
    def test_7to1_shape(self):
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.001))
        assert len(c.layouts) == 15
        assert len(c.checks) == 3
        assert len(c.observables) == 1
        assert _injected_patches(c) == list(range(spec.num_data, spec.num_data + 7))
        validate_annotations(fault_table(c))

    def test_15to1_shape(self):
        spec = build_protocol(FIFTEEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.001))
        assert len(c.layouts) == 31
        assert len(c.checks) == 4
        assert len(c.observables) == 1
        assert _injected_patches(c) == list(range(spec.num_data, spec.num_data + 15))
        validate_annotations(fault_table(c))

    def test_detector_counts_frozen(self):
        c7 = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3,
                                        NoiseModel(0.001))
        c15 = build_distillation_circuit(build_protocol(FIFTEEN_TO_ONE), 3,
                                         NoiseModel(0.001))
        assert len(c7.detectors) == 376
        assert len(c15.detectors) == 888

    def test_data_patch_round_counts(self):
        """7-to-1 data patches see 5 SE rounds, 15-to-1 see 6 (cost model)."""
        for kind, want in ((SEVEN_TO_ONE, 5), (FIFTEEN_TO_ONE, 6)):
            spec = build_protocol(kind)
            c = build_distillation_circuit(spec, 3, NoiseModel(0.001))
            per_patch = {}
            for p, q, basis in c.meas_addr:
                if q >= 9 and p == 0:  # ancilla measurements on data patch 0
                    per_patch[p] = per_patch.get(p, 0) + 1
            assert per_patch[0] == 8 * want

    def test_cross_patch_detectors_exist(self):
        c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3,
                                       NoiseModel(0.001))
        cross = [d for d in c.detectors
                 if len({c.meas_addr[m][0] for m in d.meas}) > 1]
        assert cross, "transversal CNOTs must produce cross-patch detectors"
        for det in cross:
            patches = {c.meas_addr[m][0] for m in det.meas}
            assert len(patches) == 2


class TestSubcircuitExperiment:
    def test_bad_basis(self):
        with pytest.raises(ValueError):
            build_cnot_subcircuit_experiment(build_protocol(SEVEN_TO_ONE), 3,
                                             NoiseModel(0.001), basis="Y")

    @pytest.mark.parametrize("kind,n", [(SEVEN_TO_ONE, 8), (FIFTEEN_TO_ONE, 16)])
    def test_one_observable_per_patch_across_pair(self, kind, n):
        spec = build_protocol(kind)
        ids = []
        for basis in ("Z", "X"):
            c = build_cnot_subcircuit_experiment(spec, 3, NoiseModel(0.001), basis)
            validate_annotations(fault_table(c))
            ids.extend(o.id for o in c.observables)
        assert sorted(ids) == list(range(n))

    def test_web_assignment_covers_all_patches(self):
        for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            spec = build_protocol(kind)
            webs = minimal_web_observables(spec)
            patches = [q for basis in ("Z", "X") for q, _ in webs[basis]]
            assert sorted(patches) == list(range(spec.num_data))
            for basis in ("Z", "X"):
                for q, mask in webs[basis]:
                    assert (mask >> q) & 1, "web must contain its own patch"

    def test_observables_deterministic(self):
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_cnot_subcircuit_experiment(spec, 3, NoiseModel(0.0), "Z")
        validate_annotations(fault_table(c))
        assert not reference_run(c).observable_parity.any()
