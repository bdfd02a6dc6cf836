"""Experiment driver tests: statistics containers, drivers, cost model."""
import json

import numpy as np
import pytest

from matching_oracle import det_slots, walk_syndrome_masks
from sampler_oracle import planes
from msdsim import harness, sampler
from msdsim.builders import (NoiseModel, build_distillation_circuit,
                             build_memory_circuit)
from msdsim.harness import (DecodingPipeline, ExperimentConfig,
                            ExperimentStats, emit_results, qubit_cycles,
                            result_row, run_distillation, run_logical,
                            run_memory_baseline, run_subcircuit,
                            wilson_interval)
from msdsim.protocols import (FIFTEEN_TO_ONE, SEVEN_TO_ONE, analytic_pout,
                              build_protocol, discard_ratio)
from msdsim.sampler import CHUNK, fault_table, sample


class TestWilson:
    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_known_value(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2366, abs=2e-4)
        assert hi == pytest.approx(0.7634, abs=2e-4)

    def test_zero_successes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05

    def test_contains_point_estimate(self):
        for k, n in ((1, 7), (50, 100), (99, 100)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="bogus")
        with pytest.raises(ValueError):
            ExperimentConfig(d=4)
        with pytest.raises(ValueError):
            ExperimentConfig(shots=0)

    def test_stats_accumulation(self):
        st = ExperimentStats()
        st.record(True, False, 1)
        st.record(True, True, 2)
        st.record(False, False, 1)
        assert (st.shots, st.accepted, st.errors) == (3, 2, 1)
        assert st.p_accept == pytest.approx(2 / 3)
        assert st.discard_ratio == pytest.approx(1 / 3)
        assert st.p_out == pytest.approx(0.5)
        assert st.iteration_hist == {1: 2, 2: 1}


class TestLogicalDriver:
    def test_matches_analytic(self):
        cfg = ExperimentConfig(protocol=SEVEN_TO_ONE, p_in=0.1, shots=200_000,
                               seed=4)
        st = run_logical(cfg)
        spec = build_protocol(SEVEN_TO_ONE)
        assert st.discard_ratio == pytest.approx(discard_ratio(spec, 0.1), abs=0.005)
        assert st.p_out == pytest.approx(analytic_pout(SEVEN_TO_ONE, 0.1), abs=0.002)

    def test_seed_reproducible(self):
        cfg = ExperimentConfig(p_in=0.2, shots=5000, seed=7)
        a, b = run_logical(cfg), run_logical(cfg)
        assert (a.accepted, a.errors) == (b.accepted, b.errors)


class TestSurfaceDrivers:
    def test_noiseless_distillation_perfect(self):
        cfg = ExperimentConfig(p_circuit=0.0, p_in=0.0, shots=50, seed=0)
        st = run_distillation(cfg)
        assert st.accepted == 50 and st.errors == 0
        assert st.iteration_hist == {1: 50}

    def test_noiseless_memory_perfect(self):
        cfg = ExperimentConfig(p_circuit=0.0, shots=50, rounds=2)
        st = run_memory_baseline(cfg)
        assert st.accepted == 50 and st.errors == 0

    def test_chunked_memory_equals_whole_batch(self):
        """The chunked loop decodes the shots of one whole `sample` call:
        the oracle is the loop over a fully unpacked batch."""
        cfg = ExperimentConfig(p_circuit=5e-3, shots=CHUNK + 37, rounds=2, seed=9)
        pipeline = DecodingPipeline.build(
            build_memory_circuit(cfg.d, cfg.rounds, cfg.noise()))
        dec = pipeline.decoder
        want = ExperimentStats()
        batch = sample(fault_table(pipeline.circuit), cfg.shots, cfg.seed)
        det, _, obs = planes(batch, pipeline.circuit)
        slots = det_slots(dec)
        for s in range(cfg.shots):
            res = dec.decode_shot(walk_syndrome_masks(slots, det[:, s]), cfg.max_iters)
            want.record(True, bool((res.obs_mask & 1) != obs[0, s]), res.iterations_used)
        got = run_memory_baseline(cfg)
        assert want.errors > 0
        assert (got.shots, got.accepted, got.errors, got.iteration_hist) == \
            (want.shots, want.accepted, want.errors, want.iteration_hist)

    def test_fault_table_built_once_per_pipeline(self, monkeypatch):
        """Over runs of two chunks, the fault table is built once per
        `DecodingPipeline.build` and never while the shots are drawn."""
        calls = []

        def spy(circuit):
            calls.append(circuit)
            return fault_table(circuit)

        monkeypatch.setattr(harness, "fault_table", spy)
        monkeypatch.setattr(sampler, "fault_table", spy)
        run_memory_baseline(ExperimentConfig(p_circuit=5e-3, shots=CHUNK + 37, rounds=2))
        assert len(calls) == 1
        cfg = ExperimentConfig(p_circuit=0.0, p_in=0.1, shots=CHUNK + 37)
        pipeline = DecodingPipeline.build(build_distillation_circuit(
            build_protocol(cfg.protocol), cfg.d, cfg.noise()))
        assert len(calls) == 2
        run_distillation(cfg, pipeline)
        assert len(calls) == 2

    def test_one_pipeline_serves_a_p_in_sweep(self):
        """The sampler draws the injections at each run's p_in, so one
        pipeline gives, at seed 5, the counts a fresh pipeline per p_in gave
        when p_in was the INJECT_Z instructions' rate."""
        pipeline = harness.distillation_pipeline(ExperimentConfig())
        for p_in, want in ((0.3, (694, 220)), (0.01, (4558, 21)), (0.1, (2379, 32))):
            st = run_distillation(ExperimentConfig(p_in=p_in, shots=5000, seed=5), pipeline)
            assert (st.accepted, st.errors) == want, p_in

    def test_subcircuit_keys_are_patches(self):
        cfg = ExperimentConfig(p_circuit=0.0, shots=20)
        out = run_subcircuit(cfg)
        assert sorted(out) == list(range(8))
        assert all(st.errors == 0 for st in out.values())


class TestCostModel:
    @pytest.mark.parametrize("d", [3, 5, 7, 9])
    def test_closed_form(self, d):
        assert qubit_cycles(SEVEN_TO_ONE, d) == 47 * d * d
        assert qubit_cycles(FIFTEEN_TO_ONE, d) == 111 * d * d

    def test_reference_point(self):
        assert qubit_cycles(SEVEN_TO_ONE, 3) == 423

    @pytest.mark.parametrize("kind", [SEVEN_TO_ONE, FIFTEEN_TO_ONE])
    @pytest.mark.parametrize("d", [3, 5])
    def test_matches_built_circuit(self, kind, d):
        """Each patch of the built circuit measures its d^2 - 1 ancillas once
        per round and has d^2 data qubits; the data-qubit-rounds summed over
        patches are `qubit_cycles`."""
        circ = build_distillation_circuit(build_protocol(kind), d, NoiseModel(1e-3))
        ancilla_meas: dict[int, int] = {}
        for patch, q, _ in circ.meas_addr:
            if q >= circ.layouts[patch].num_data:
                ancilla_meas[patch] = ancilla_meas.get(patch, 0) + 1
        cycles = 0
        for n in ancilla_meas.values():
            assert n % (d * d - 1) == 0
            cycles += n // (d * d - 1) * d * d
        assert cycles == qubit_cycles(kind, d)


class TestResultEmission:
    def _rows(self):
        cfg = ExperimentConfig(p_in=0.1, shots=1000, seed=1)
        return [result_row("logical", cfg, run_logical(cfg))]

    def test_csv(self):
        text = emit_results(self._rows(), "csv")
        header, row = text.strip().splitlines()
        assert header.startswith("experiment,protocol,d,")
        assert row.startswith("logical,SevenToOne,3,")

    def test_json_round_trip(self):
        rows = self._rows()
        parsed = json.loads(emit_results(rows, "json"))
        assert parsed == rows

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_results([], "yaml")
