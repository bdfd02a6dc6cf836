"""Experiment driver tests: statistics containers, drivers, cost model."""
import copy
import gc
import json
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from matching_oracle import basis_masks
from sampler_oracle import fault_signatures, planes
from msdsim import harness, sampler
from msdsim.builders import (NoiseModel, build_distillation_circuit,
                             build_memory_circuit)
from msdsim.decoder import DecodeResult
from msdsim.harness import (DecodingPipeline, ExperimentConfig,
                            ExperimentStats, emit_results, predict_outcome,
                            qubit_cycles, result_row, run_distillation,
                            run_logical, run_memory_baseline, run_subcircuit,
                            tally, wilson_interval)
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
        with pytest.raises(ValueError, match="^rounds must be >= 1$"):
            ExperimentConfig(rounds=0)

    def test_stats_accumulation(self):
        """`+=` adds counts, leaves `seconds` and the other tally alone,
        and the rates follow the merged counts."""
        st = ExperimentStats(shots=3, accepted=2, errors=1, seconds=0.5)
        other = ExperimentStats(shots=5, accepted=4, errors=2, seconds=9.0)
        merged = st
        merged += other
        assert merged is st
        assert (st.shots, st.accepted, st.errors, st.seconds) == (8, 6, 3, 0.5)
        assert other == ExperimentStats(5, 4, 2, 9.0)
        assert st.p_accept == pytest.approx(6 / 8)
        assert st.discard_ratio == pytest.approx(2 / 8)
        assert st.p_out == pytest.approx(3 / 6)
        assert st.p_out_interval() == wilson_interval(3, 6)
        st += ExperimentStats()
        assert (st.shots, st.accepted, st.errors) == (8, 6, 3)


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

    def test_memory_bounded_in_shots(self):
        """15-to-1 shots are drawn and scored a chunk at a time: the peak
        allocation at 8 chunks stays within 1.5x of the peak at one."""
        # Warm up first, so the oracle table falls in no measured peak.
        run_logical(ExperimentConfig(protocol=FIFTEEN_TO_ONE, p_in=0.1, shots=8))
        peaks = {}
        for shots in (CHUNK, 8 * CHUNK):
            tracemalloc.start()
            try:
                run_logical(ExperimentConfig(protocol=FIFTEEN_TO_ONE, p_in=0.1,
                                             shots=shots, seed=1))
                peaks[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8 * CHUNK] <= 1.5 * peaks[CHUNK], peaks


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
        batch = sample(pipeline.table, cfg.shots, cfg.seed)
        det, _, obs = planes(batch, pipeline.table)
        nd = len(pipeline.table.detectors)
        errors = 0
        for s, masks in enumerate(basis_masks(pipeline.table, det)):
            res = dec.decode_shot(masks)
            errors += (res.flips >> nd & 1) != obs[0, s]
        got = run_memory_baseline(cfg)
        assert errors > 0
        assert (got.shots, got.accepted, got.errors, got.iteration_hist) == \
            (cfg.shots, cfg.shots, errors, {1: cfg.shots})

    def test_noisy_memory_baseline_is_pinned(self):
        """Every memory shot is accepted; its error count is pinned."""
        st = run_memory_baseline(ExperimentConfig(p_circuit=5e-3, rounds=3,
                                                  shots=20_000, seed=1))
        assert (st.shots, st.accepted, st.errors) == (20_000, 20_000, 649)

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
        pipeline serves a whole sweep; its seed-5 counts are pinned."""
        pipeline = harness.distillation_pipeline(ExperimentConfig())
        for p_in, want in ((0.3, (695, 220)), (0.01, (4558, 21)), (0.1, (2379, 32))):
            st = run_distillation(ExperimentConfig(p_in=p_in, shots=5000, seed=5), pipeline)
            assert (st.accepted, st.errors) == want, p_in

    def test_subcircuit_keys_are_patches(self):
        cfg = ExperimentConfig(p_circuit=0.0, shots=20)
        out = run_subcircuit(cfg)
        assert sorted(out) == list(range(8))
        assert all(st.errors == 0 for st in out.values())

    def test_noisy_subcircuit_counts_are_pinned(self):
        """Each patch's errors are the shots its own observable bit was
        decoded wrong on; every shot is accepted and decoded in one pass."""
        out = run_subcircuit(ExperimentConfig(protocol=SEVEN_TO_ONE, p_circuit=3e-3,
                                              shots=3000, seed=2))
        assert [out[p].errors for p in range(8)] == [56, 102, 108, 69, 73, 111, 127, 83]
        assert all((st.shots, st.accepted, st.iteration_hist) == (3000, 3000, {1: 3000})
                   for st in out.values())


# The benchmark's workloads and three runs above d=3, at seed 0: (config,
# accepted, errors); every shot is decoded in one pass.  Any change to the sampler or the
# per-shot decode must leave these counts exactly as they are.
_PINNED = {
    "distill7-d3": (ExperimentConfig(protocol=SEVEN_TO_ONE, p_circuit=1e-3,
                                     p_in=0.01, shots=20_000, seed=0),
                    18239, 89),
    "distill15-d3-noisy": (ExperimentConfig(protocol=FIFTEEN_TO_ONE, p_circuit=3e-3,
                                            p_in=0.1, shots=10_000, seed=0),
                           1562, 221),
    # Above d=3, at p_circuit = p_in = 1e-3: cluster sizes d=3 never
    # reaches.  The d=7 run has a cluster of 15 defects, matched by blossom.
    "7to1-d5": (ExperimentConfig(protocol=SEVEN_TO_ONE, d=5, p_circuit=1e-3,
                                 p_in=1e-3, shots=2000, seed=0),
                1968, 1),
    "15to1-d5": (ExperimentConfig(protocol=FIFTEEN_TO_ONE, d=5, p_circuit=1e-3,
                                  p_in=1e-3, shots=1000, seed=0),
                 969, 0),
    "7to1-d7": (ExperimentConfig(protocol=SEVEN_TO_ONE, d=7, p_circuit=1e-3,
                                 p_in=1e-3, shots=2000, seed=0),
                1987, 0),
}


class TestBenchmarkWorkloads:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_seed_zero_counts_are_pinned(self, name):
        cfg, accepted, errors = _PINNED[name]
        st = run_distillation(cfg)
        assert (st.shots, st.accepted, st.errors, st.iteration_hist) == \
            (cfg.shots, accepted, errors, {1: cfg.shots})

    def test_pipeline_keeps_no_circuit(self):
        """Nothing holds a circuit once its pipeline is built: the table
        names the signature columns, so a 300-shot run on the pipeline alone
        gives the counts pinned while pipelines still kept the circuit."""
        cfg = replace(_PINNED["distill7-d3"][0], shots=300)
        circuit = build_distillation_circuit(build_protocol(cfg.protocol), cfg.d, cfg.noise())
        ref = weakref.ref(circuit)
        pipeline = DecodingPipeline.build(circuit)
        del circuit
        gc.collect()
        assert ref() is None
        st = run_distillation(cfg, pipeline)
        assert (st.shots, st.accepted, st.errors, st.iteration_hist) == \
            (300, 269, 2, {1: 300})

    def test_deep_copied_pipeline_runs_like_the_original(self):
        """A deep copy of a never-run pipeline, run cold, gives the
        original's counts, so every attribute of a pipeline can be copied."""
        cfg = ExperimentConfig(protocol=FIFTEEN_TO_ONE, p_circuit=3e-3, p_in=0.1,
                               shots=2000, seed=0)
        pipeline = harness.distillation_pipeline(cfg)
        twin = copy.deepcopy(pipeline)
        want = run_distillation(cfg, pipeline)
        got = run_distillation(cfg, twin)
        assert (got.accepted, got.errors, got.iteration_hist) == \
            (want.accepted, want.errors, want.iteration_hist)
        for g, h in zip(pipeline.decoder.graphs.values(), twin.decoder.graphs.values()):
            assert h is not g and h._cache is not g._cache

    @pytest.mark.parametrize("name", ["distill7-d3", "distill15-d3-noisy"])
    def test_a_chunk_decodes_the_same_on_cold_caches(self, name):
        """Chunk 1 decoded first, on a never-run copy of the pipeline, gives
        the tally chunk 1 gives after chunk 0 in a serial run, and the serial
        run's merged tallies are `run_distillation`'s."""
        cfg = replace(_PINNED[name][0], shots=CHUNK + 300)
        pipeline = harness.distillation_pipeline(cfg)
        cold = copy.deepcopy(pipeline)
        serial = [harness.decode_chunk(pipeline, cfg, k) for k in (0, 1)]
        assert harness.decode_chunk(cold, cfg, 1) == serial[1]
        chunk = serial[1][0]
        assert (chunk.shots, chunk.iteration_hist) == (300, {1: 300}) and chunk.accepted < 300
        merged = serial[0][0]
        merged += serial[1][0]
        got = run_distillation(cfg, cold)
        assert (got.shots, got.accepted, got.errors, got.iteration_hist) == \
            (merged.shots, merged.accepted, merged.errors, merged.iteration_hist)


class TestPredictOutcome:
    """Signatures of 3 detectors, then 2 observables, then the checks; the
    detector bits of a shot or a correction never count."""

    @staticmethod
    def _sig(dets: int, obs: int, checks: int) -> int:
        return dets | obs << 3 | checks << 5

    def _res(self, obs: int, checks: int) -> DecodeResult:
        return DecodeResult(self._sig(0b110, obs, checks))

    def test_bit_positions(self):
        res = self._res(0b10, 0b101)
        # The correction cancels the shot's check bits; both outputs are wrong.
        assert predict_outcome(res, self._sig(0b011, 0b01, 0b101), 3, 2) == (True, 0b11)
        assert predict_outcome(res, self._sig(0, 0b10, 0b100), 3, 2) == (False, 0)

    def test_two_observables_give_the_int_of_the_wrong_bits(self):
        """The second value is the int of the observable bits decoded wrong,
        and 0 when the decoder got both right."""
        res = self._res(0b10, 0)
        assert predict_outcome(res, self._sig(0, 0b10, 0), 3, 2) == (True, 0)
        assert predict_outcome(res, self._sig(0, 0b11, 0), 3, 2) == (True, 0b01)
        assert predict_outcome(res, self._sig(0, 0b00, 0), 3, 2) == (True, 0b10)
        assert predict_outcome(res, self._sig(0, 0b01, 0), 3, 2) == (True, 0b11)
        assert predict_outcome(res, self._sig(0, 0b01, 1), 3, 2) == (False, 0b11)


class TestTally:
    @pytest.mark.parametrize("protocol, d, faults, distinct", [
        pytest.param(SEVEN_TO_ONE, 3, 24133, 4041, id="SevenToOne-d3"),
        pytest.param(FIFTEEN_TO_ONE, 3, 56877, 10052, id="FifteenToOne-d3"),
        pytest.param(SEVEN_TO_ONE, 5, 74013, 14895, id="SevenToOne-d5"),
        pytest.param(FIFTEEN_TO_ONE, 5, 174469, 36848, id="FifteenToOne-d5")])
    def test_every_single_fault_is_corrected(self, protocol, d, faults, distinct):
        """Each (site, Pauli term) fault of the circuit at p_circuit 1e-3,
        its signature the XOR of the term's component rows, is accepted and
        decoded right: one fault never flips the output unnoticed, and none
        is discarded.  Equal signatures are decoded once."""
        pipeline = harness.distillation_pipeline(
            ExperimentConfig(protocol=protocol, d=d, p_circuit=1e-3))
        sigs = fault_signatures(pipeline.table)
        unique = sorted(set(sigs) - {0})
        assert (len(sigs), len(unique)) == (faults, distinct)
        st = tally(pipeline, unique)[0]
        assert (st.shots, st.accepted, st.errors) == (distinct, distinct, 0)
        assert st.iteration_hist == {1: distinct}


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
