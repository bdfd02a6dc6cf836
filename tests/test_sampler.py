"""Shot sampler tests: reproducibility, chunking, injection patterns as XORed
table rows, the fault table against the forward-propagation oracle, and the
output distribution against the Pauli-frame oracle."""
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, csr_matrix
from scipy.stats import binom, chi2_contingency, chisquare

from dem_oracle import forward_faults
from sampler_oracle import (fault_signatures, injection_rows, planes,
                            sample as frame_sample)
from test_dem import _ORACLE_CIRCUITS, _random_circuits
from msdsim.builders import (NoiseModel, build_distillation_circuit,
                             build_memory_circuit)
from msdsim.circuit import Circuit, ParitySet
from msdsim.dem import _bits
from msdsim.layout import build_patch
from msdsim.protocols import (FIFTEEN_TO_ONE, SEVEN_TO_ONE, build_protocol,
                              exhaustive_oracle)
from msdsim.sampler import CHUNK, KINDS, TERMS, fault_table, sample, signature_columns


# sha256 of repr(sample(fault_table(c), CHUNK + 37, 0, p_in=p_in).unpack()) on
# the benchmark's two circuits, each shot's detector bits moved into (home
# patch, basis) order: the random stream and its shots are pinned.  Each
# equals the digest of the stream pinned since the bit-packed byte-plane
# sampler, taken while the circuits also carried the gauge frame parity as
# observable 1, with that column (bit nd + 1) deleted from every shot, and
# while the builders numbered detectors in that order.
_STREAM_DIGESTS = {
    "7to1-d3": (SEVEN_TO_ONE, 1e-3, 0.01,
                "b3a8a31f69ad041a4656a518bacb06e139ea7e6e3548f4101fd1530592902027"),
    "15to1-d3": (FIFTEEN_TO_ONE, 3e-3, 0.1,
                 "0f121fc962dd0e8b6b8d605af4634b59bf5fe0b5b012a84c27c61391c1893878"),
}


class TestReproducibility:
    @pytest.mark.parametrize("name", sorted(_STREAM_DIGESTS))
    def test_stream_is_pinned(self, name):
        protocol, p_circuit, p_in, digest = _STREAM_DIGESTS[name]
        c = build_distillation_circuit(build_protocol(protocol), 3, NoiseModel(p_circuit))
        nd = len(c.detectors)
        order = sorted(range(nd), key=lambda d: (c.detectors[d].home_patch,
                                                 c.detectors[d].basis))
        moved = {d: 1 << s for s, d in enumerate(order)}
        sigs = [sig >> nd << nd | sum(moved[d] for d in _bits(sig & (1 << nd) - 1))
                for sig in sample(fault_table(c), CHUNK + 37, 0, p_in=p_in).unpack()]
        assert hashlib.sha256(repr(sigs).encode()).hexdigest() == digest

    def test_int64_rows_sample_like_python_ints(self):
        """A signature of fewer than 64 columns is held as an int64; the same
        table with its rows as Python ints gives the same shots."""
        c = build_memory_circuit(3, 3, NoiseModel(0.05))
        table = fault_table(c)
        assert len(signature_columns(c)) < 64 and table.sigs.dtype == np.int64
        wide = dataclasses.replace(table, sigs=table.sigs.astype(object))
        a = sample(table, 3000, 5)
        b = sample(wide, 3000, 5)
        assert b.sigs.dtype == object
        assert a.unpack() == b.unpack()

    def test_same_seed_byte_identical(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.005))
        a = sample(fault_table(c), 3000, seed=99)
        b = sample(fault_table(c), 3000, seed=99)
        assert np.array_equal(a.sigs, b.sigs)

    def test_different_seeds_differ(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.005))
        a = sample(fault_table(c), 3000, seed=1)
        b = sample(fault_table(c), 3000, seed=2)
        assert not np.array_equal(planes(a, c)[0], planes(b, c)[0])

    def test_noiseless_all_zero(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.0))
        batch = sample(fault_table(c), 500, seed=0)
        det, _, obs = planes(batch, c)
        assert not det.any()
        assert not obs.any()


class TestChunking:
    def test_shot_count_above_chunk_boundary(self):
        c = build_memory_circuit(3, 1, NoiseModel(0.01))
        shots = CHUNK + 37
        batch = sample(fault_table(c), shots, seed=5)
        det = planes(batch, c)[0]
        assert det.shape == (len(c.detectors), shots)
        # noise must be present on both sides of the chunk boundary
        assert det[:, :CHUNK].any() and det[:, CHUNK:].any()

    def test_chunk_by_chunk_equals_one_call(self):
        """Chunk k drawn alone (`first_chunk=k`) is the k-th slice of one
        whole call: the chunks' signature rows join shot after shot.  Check 1
        measures a qubit after an injection, so it carries the injection
        draws."""
        c = build_memory_circuit(3, 1, NoiseModel(0.01))
        c.checks.append(ParitySet(meas=c.observables[0].meas, id=0))
        c.emit("INJECT_Z", ((0, 0), (0, 1)))
        c.checks.append(ParitySet(meas=(c.measure(0, 0, "X", 0.0),), id=1))
        shots, table = 2 * CHUNK + 5, fault_table(c)
        whole = sample(table, shots, 7, p_in=0.3)
        parts = [sample(table, min(CHUNK, shots - done), 7, k, 0.3)
                 for k, done in enumerate(range(0, shots, CHUNK))]
        assert np.array_equal(whole.sigs, np.concatenate([b.sigs for b in parts]))
        chk = planes(whole, c)[1]
        assert chk.shape == (len(c.checks), shots)
        assert chk[1, :CHUNK].any() and chk[1, CHUNK:2 * CHUNK].any()

    def test_unpack_reads_each_shot_bit_by_bit(self):
        """Over two chunks, each shot's signature int, read as a binary
        string, has digit c set exactly when `planes` reads column c of that
        shot set, and no digit above the columns.  Columns: the memory
        circuit's detectors and observable, then checks that flip with
        probability 1, 0 and 1 (measured straight after a reset, so only
        their own flip reaches them), 20 columns in all."""
        c = build_memory_circuit(3, 2, NoiseModel(0.01))
        for i, p in enumerate((1.0, 0.0, 1.0)):
            c.emit("RZ", ((0, 0),))
            c.checks.append(ParitySet(meas=(c.measure(0, 0, "Z", p),), id=i))
        cols = len(signature_columns(c))
        assert cols == 20
        shots = CHUNK + 1003
        batch = sample(fault_table(c), shots, seed=6)
        det, chk, obs = planes(batch, c)
        assert chk[0].all() and not chk[1].any() and chk[2].all()
        assert det[:, :CHUNK].any() and det[:, CHUNK:].any()
        bits = np.vstack([det, obs, chk])
        sigs = batch.unpack()
        assert len(sigs) == shots
        for s in range(shots):
            digits = "".join("1" if bits[col, s] else "0" for col in reversed(range(cols)))
            assert format(sigs[s], f"0{cols}b") == digits, s

    def test_unpack_respects_shot_count(self):
        c = build_memory_circuit(3, 1, NoiseModel(0.01))
        batch = sample(fault_table(c), 10, seed=5)
        assert len(batch.unpack()) == 10
        assert planes(batch, c)[0].shape[1] == 10


class TestStatistics:
    def test_detector_rates_scale_with_p(self):
        c_lo = build_memory_circuit(3, 3, NoiseModel(1e-3))
        c_hi = build_memory_circuit(3, 3, NoiseModel(1e-2))
        lo = sample(fault_table(c_lo), 20_000, seed=3)
        hi = sample(fault_table(c_hi), 20_000, seed=3)
        m_lo = planes(lo, c_lo)[0].mean()
        m_hi = planes(hi, c_hi)[0].mean()
        assert 0 < m_lo < m_hi < 0.5
        assert m_hi / m_lo == pytest.approx(10.0, rel=0.35)


def _syndrome_sig(c: Circuit, spec, resources) -> int:
    """The signature of injections on `resources` at zero circuit noise, from
    `ProtocolSpec.syndrome_map`: no detector bits; check bits the XOR of the
    resources' check masks; the output observable flips with the XOR of their
    output flips."""
    check_masks, out_flips = spec.syndrome_map()
    chk = out = 0
    for r in resources:
        chk ^= int(check_masks[r])
        out ^= int(out_flips[r])
    nd, no = len(c.detectors), len(c.observables)
    return (chk << (nd + no)) | out << nd


class TestForcedInjections:
    def test_forced_pattern_reproduces_oracle(self):
        """With zero circuit noise, every injection pattern's signature, the
        XOR of its resources' injection rows, is that of their syndrome-map
        entries, and its raw check/observable flips equal the logical-level
        oracle exactly."""
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.0))
        table = exhaustive_oracle(SEVEN_TO_ONE)
        rows = injection_rows(fault_table(c), spec.num_data)
        nd, no = len(c.detectors), len(c.observables)
        for pat in range(1 << spec.num_resources):
            resources = [r for r in range(spec.num_resources) if pat >> r & 1]
            sig = 0
            for r in resources:
                sig ^= rows[r]
            assert sig == _syndrome_sig(c, spec, resources)
            accepted = sig >> (nd + no) == 0
            assert accepted == bool(table.accepted[pat])
            if accepted:
                assert bool(sig >> nd & 1) == bool(table.output_error[pat])

    def test_p_in_one_fires_every_injection(self):
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.0))
        table = fault_table(c)
        every = _syndrome_sig(c, spec, range(spec.num_resources))
        assert sample(table, 50, seed=0, p_in=1.0).unpack() == [every] * 50

    @pytest.mark.parametrize("p_in", [-0.1, 1.5, float("nan")])
    def test_p_in_must_be_a_probability(self, p_in):
        table = fault_table(build_distillation_circuit(
            build_protocol(SEVEN_TO_ONE), 3, NoiseModel(0.0)))
        with pytest.raises(ValueError, match="p_in"):
            sample(table, 10, seed=0, p_in=p_in)

    def test_random_injections_fire_at_rate(self):
        """At p_circuit 0 and p_in 0.2 the accepted fraction (no check
        flipped) is the oracle's p_accept(0.2), within 5 sigma."""
        spec = build_protocol(SEVEN_TO_ONE)
        c = build_distillation_circuit(spec, 3, NoiseModel(0.0))
        shots = 50_000
        chk = planes(sample(fault_table(c), shots, seed=8, p_in=0.2), c)[1]
        want = exhaustive_oracle(SEVEN_TO_ONE).p_accept(0.2)
        got = 1 - chk.any(axis=0).mean()
        assert abs(got - want) < 5 * np.sqrt(want * (1 - want) / shots), (got, want)


def _assert_table_equals_oracle(circuit: Circuit) -> None:
    """The signature rows of the table's p > 0 faults and injections, in
    forward order (the XOR of each term's component rows), equal
    `forward_faults`' measurement flips projected onto `signature_columns`,
    which the table names as the circuit does.  Row 0 is the zero signature,
    and every component a site's kind leaves unused (no term applies it)
    points at it."""
    cols = signature_columns(circuit)
    table = fault_table(circuit)
    assert signature_columns(table) == cols
    assert table.sigs[0] == 0
    for k, kind in enumerate(KINDS):
        assert not table.comp[table.kind == k][:, ~TERMS[kind].any(axis=0)].any(), kind
    ints = fault_signatures(table, injections=True)
    _, flips = forward_faults(circuit)
    # member[m, c]: how often measurement m is in column c (a repeat cancels).
    member = coo_matrix((np.ones(sum(len(s.meas) for s in cols), dtype=np.int64),
                         ([m for s in cols for m in s.meas],
                          [c for c, s in enumerate(cols) for _ in s.meas])),
                        shape=(circuit.num_measurements, len(cols))).tocsr()
    want = (csr_matrix(flips, dtype=np.int64) @ member).toarray() % 2 == 1
    assert ints == [int.from_bytes(np.packbits(w, bitorder="little").tobytes(), "little")
                    for w in want]


class TestFaultTable:
    """Every elementary fault's signature, read off the backward sweep's
    component rows, equals forward propagation of that fault."""

    @pytest.mark.parametrize("protocol", [SEVEN_TO_ONE, FIFTEEN_TO_ONE])
    def test_injection_rows_carry_syndrome_map(self, protocol):
        """One site per resource r, on patch `num_data + r` and at p = 0 (the
        sampler sets the rate): its row has no detector bits, and its check and
        observable bits are the resource's `syndrome_map` entries; every
        single injection flips some check."""
        spec = build_protocol(protocol)
        c = build_distillation_circuit(spec, 3, NoiseModel(1e-3))
        table = fault_table(c)
        sites = np.flatnonzero(table.kind == KINDS.index("INJECT_Z"))
        assert sorted(table.origin[sites] - spec.num_data) == list(range(spec.num_resources))
        for site in sites:
            r = int(table.origin[site]) - spec.num_data
            assert table.p[site] == 0
            row = int(table.sigs[table.comp[site, 0]])
            assert row == _syndrome_sig(c, spec, [r])
            assert row >> (len(c.detectors) + len(c.observables)) != 0

    @pytest.mark.parametrize("name", sorted(_ORACLE_CIRCUITS))
    def test_builder_circuits_equal_oracle(self, name):
        _assert_table_equals_oracle(_ORACLE_CIRCUITS[name]())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_circuits_equal_oracle(self, data):
        _assert_table_equals_oracle(data.draw(_random_circuits()))


def _flip_circuit(p: float, n: int = 40) -> Circuit:
    """`n` measurements of one qubit, each with classical flip probability p
    and its own check, so the check plane carries the flips."""
    c = Circuit(layouts={0: build_patch(3)})
    for i in range(n):
        c.checks.append(ParitySet(meas=(c.measure(0, 0, "Z", p),), id=i))
    return c


class TestBernoulli:
    def test_flip_count_is_binomial(self):
        """Slots fire i.i.d.: per shot, the flipped-measurement count is
        Binomial(M, p).  A slot drawn twice would XOR back to zero and thin
        the upper tail."""
        n, p, shots = 40, 0.3, 20_000
        c = _flip_circuit(p, n)
        batch = sample(fault_table(c), shots, seed=4)
        counts = planes(batch, c)[1].sum(axis=0)
        sigma = np.sqrt(n * p * (1 - p) / shots)
        assert abs(counts.mean() - n * p) < 5 * sigma
        hist = np.bincount(counts, minlength=n + 1)
        expected = shots * binom.pmf(np.arange(n + 1), n, p)
        small = expected < 5
        obs = np.append(hist[~small], hist[small].sum())
        exp = np.append(expected[~small], expected[small].sum())
        assert chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-6

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_probabilities(self, p):
        shots = CHUNK + 37
        batch = sample(fault_table(_flip_circuit(p, 5)), shots, seed=4)
        assert batch.unpack() == [0b11111 if p == 1.0 else 0] * shots

    def test_memory_bounded_at_any_noise(self):
        """Fired slots are processed in bounded blocks: at p = 0.5 and 1 the
        sampler's peak allocation stays within 2x of the p = 1e-3 peak."""
        # Warm up first, so one-time allocations fall in no measured peak.
        sample(fault_table(build_memory_circuit(3, 3, NoiseModel(1e-3))), 8, seed=0)
        peaks = {}
        for p in (1e-3, 0.5, 1.0):
            c = build_memory_circuit(3, 3, NoiseModel(p))
            tracemalloc.start()
            try:
                sample(fault_table(c), CHUNK + 37, seed=1)
                peaks[p] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks[0.5], peaks[1.0]) <= 2 * peaks[1e-3], peaks

    def test_memory_bounded_on_wide_signatures(self):
        """The same bound where shots are Python ints: 121 columns, so a
        fired slot XORs an object row and a nonzero shot is a heap int.  At
        1024 shots the peaks measured 163-164 KB at p = 1e-3 and 253-260 KB
        at p = 0.5 and 1 (seeds 1-3), a ratio of at most 1.6."""
        sample(fault_table(build_memory_circuit(3, 3, NoiseModel(1e-3))), 8, seed=0)
        peaks = {}
        for p in (1e-3, 0.5, 1.0):
            c = build_memory_circuit(5, 5, NoiseModel(p))
            assert len(signature_columns(c)) == 121
            tracemalloc.start()
            try:
                batch = sample(fault_table(c), 1024, seed=1)
                peaks[p] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert batch.sigs.dtype == object
        assert max(peaks[0.5], peaks[1.0]) <= 2 * peaks[1e-3], peaks


_STAT_CIRCUITS = {
    "7to1-d3": (SEVEN_TO_ONE, 1e-3, 0.01, 20_000),
    "15to1-d3": (FIFTEEN_TO_ONE, 3e-3, 0.1, 10_000),
}


class TestAgainstFrameOracle:
    """The fault sampler's output distribution equals the Pauli-frame
    simulator's (different random streams, so compared statistically)."""

    @pytest.fixture(scope="class", params=sorted(_STAT_CIRCUITS))
    def batches(self, request):
        protocol, p_circuit, p_in, shots = _STAT_CIRCUITS[request.param]
        c = build_distillation_circuit(build_protocol(protocol), 3, NoiseModel(p_circuit))
        return (c, sample(fault_table(c), shots, seed=31, p_in=p_in),
                frame_sample(c, shots, seed=32, p_in=p_in))

    def test_row_rates(self, batches):
        c, a, b = batches
        n = len(a.sigs)
        for name, pa, pb in zip(("det", "check", "obs"), planes(a, c), planes(b, c)):
            ka = pa.sum(axis=1)
            kb = pb.sum(axis=1)
            pooled = (ka + kb) / (2 * n)
            se = np.sqrt(pooled * (1 - pooled) * 2 / n)
            z = np.divide((ka - kb) / n, se, out=np.zeros(len(se)), where=se > 0)
            assert np.abs(z).max() < 5, (name, int(np.abs(z).argmax()))

    def test_check_observable_patterns(self, batches):
        c, *pair = batches
        hists = []
        for batch in pair:
            bits = np.vstack(planes(batch, c)[1:])
            keys = (bits.astype(np.int64) << np.arange(len(bits))[:, None]).sum(axis=0)
            hists.append(dict(zip(*np.unique(keys, return_counts=True))))
        patterns = sorted(set(hists[0]) | set(hists[1]))
        table = np.array([[h.get(k, 0) for k in patterns] for h in hists])
        rare = table.sum(axis=0) < 10
        if rare.any():
            table = np.column_stack([table[:, ~rare], table[:, rare].sum(axis=1)])
        assert chi2_contingency(table).pvalue > 1e-6
