"""Vectorised shot sampler tests: reproducibility, chunking, forced patterns."""
import numpy as np
import pytest

from msdsim.builders import (NoiseModel, build_distillation_circuit,
                             build_memory_circuit)
from msdsim.circuit import ParitySet
from msdsim.protocols import SEVEN_TO_ONE, build_protocol, exhaustive_oracle
from msdsim.sampler import CHUNK, sample


class TestReproducibility:
    def test_same_seed_byte_identical(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.005))
        a = sample(c, 3000, seed=99)
        b = sample(c, 3000, seed=99)
        assert np.array_equal(a.meas_bits, b.meas_bits)
        assert np.array_equal(a.det_bits, b.det_bits)
        assert np.array_equal(a.obs_bits, b.obs_bits)

    def test_different_seeds_differ(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.005))
        a = sample(c, 3000, seed=1)
        b = sample(c, 3000, seed=2)
        assert not np.array_equal(a.det_bits, b.det_bits)

    def test_noiseless_all_zero(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.0))
        batch = sample(c, 500, seed=0)
        assert not batch.unpack(batch.meas_bits).any()
        assert not batch.unpack(batch.det_bits).any()
        assert not batch.unpack(batch.obs_bits).any()


class TestChunking:
    def test_shot_count_above_chunk_boundary(self):
        c = build_memory_circuit(3, 1, NoiseModel(0.01))
        shots = CHUNK + 37
        batch = sample(c, shots, seed=5)
        det = batch.unpack(batch.det_bits)
        assert det.shape == (len(c.detectors), shots)
        # noise must be present on both sides of the chunk boundary
        assert det[:, :CHUNK].any() and det[:, CHUNK:].any()

    def test_chunk_by_chunk_equals_one_call(self):
        """Chunk k drawn alone (`first_chunk=k`) is the k-th slice of one
        whole call: the packed planes join byte-aligned, lane for lane."""
        c = build_memory_circuit(3, 1, NoiseModel(0.01))
        c.checks.append(ParitySet(meas=c.observables[0].meas, id=0))
        c.injections.append((len(c.instructions), 0))
        c.emit("INJECT_Z", ((0, 0), (0, 1)), 0.3)
        shots = 2 * CHUNK + 5
        whole = sample(c, shots, 7)
        parts = [sample(c, min(CHUNK, shots - done), 7, None, k)
                 for k, done in enumerate(range(0, shots, CHUNK))]
        for name in ("meas_bits", "det_bits", "check_bits", "obs_bits", "injected"):
            joined = np.concatenate([getattr(b, name) for b in parts], axis=1)
            assert np.array_equal(getattr(whole, name), joined), name
        assert whole.unpack(whole.check_bits).shape == (len(c.checks), shots)

    def test_unpack_respects_shot_count(self):
        c = build_memory_circuit(3, 1, NoiseModel(0.01))
        batch = sample(c, 10, seed=5)
        assert batch.unpack(batch.det_bits).shape[1] == 10


class TestStatistics:
    def test_detector_rates_scale_with_p(self):
        c_lo = build_memory_circuit(3, 3, NoiseModel(1e-3))
        c_hi = build_memory_circuit(3, 3, NoiseModel(1e-2))
        lo = sample(c_lo, 20_000, seed=3)
        hi = sample(c_hi, 20_000, seed=3)
        m_lo = lo.unpack(lo.det_bits).mean()
        m_hi = hi.unpack(hi.det_bits).mean()
        assert 0 < m_lo < m_hi < 0.5
        assert m_hi / m_lo == pytest.approx(10.0, rel=0.35)


class TestForcedInjections:
    def test_forced_pattern_reproduces_oracle(self):
        """With zero circuit noise, forcing injection patterns makes the raw
        check/observable flips equal the logical-level oracle exactly."""
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.0, 0.5))
        table = exhaustive_oracle(SEVEN_TO_ONE)
        patterns = [0, 1, 0b0000111, 0b1111111, 0b1010101]
        forced = np.zeros((spec.num_resources, len(patterns)), dtype=bool)
        for s, pat in enumerate(patterns):
            for r in range(spec.num_resources):
                forced[r, s] = bool((pat >> r) & 1)
        batch = sample(c, len(patterns), seed=0, forced_injections=forced)
        chk = batch.unpack(batch.check_bits)
        obs = batch.unpack(batch.obs_bits)
        assert np.array_equal(batch.injected, forced)
        for s, pat in enumerate(patterns):
            accepted = not chk[:, s].any()
            assert accepted == bool(table.accepted[pat])
            if accepted:
                assert bool(obs[0, s]) == bool(table.output_error[pat])

    def test_random_injections_fire_at_rate(self):
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.0, 0.2))
        batch = sample(c, 50_000, seed=8)
        rate = batch.injected.mean()
        assert rate == pytest.approx(0.2, abs=0.01)
