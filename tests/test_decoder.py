"""Matching-graph decoding tests: optimality, determinism, iteration loop."""
import math

import numpy as np
import pytest

from msdsim.builders import NoiseModel, build_distillation_circuit, build_memory_circuit
from msdsim.decoder import (BOUNDARY, Edge, IterativeConfig, IterativeDecoder,
                            MatchingGraph, brute_force_decode,
                            predict_outcome)
from msdsim.dem import enumerate_error_mechanisms
from msdsim.protocols import SEVEN_TO_ONE, build_protocol


def _random_graph(rng: np.random.Generator, n: int) -> MatchingGraph:
    edges = []
    for i in range(n):
        edges.append(Edge(eid=len(edges), u=i, v=BOUNDARY,
                          weight=float(rng.uniform(0.5, 4.0))))
    for _ in range(2 * n):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        edges.append(Edge(eid=len(edges), u=int(u), v=int(v),
                          weight=float(rng.uniform(0.2, 3.0))))
    return MatchingGraph(n, edges)


class TestMatchingOptimality:
    def test_random_graphs_match_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(500):
            n = int(rng.integers(2, 9))
            g = _random_graph(rng, n)
            syndrome = int(rng.integers(0, 1 << n))
            if bin(syndrome).count("1") > 8:
                continue
            corr = g.decode(syndrome)
            want = brute_force_decode(g, syndrome)
            assert corr.weight == pytest.approx(want, abs=1e-9), trial

    def test_empty_syndrome(self):
        g = _random_graph(np.random.default_rng(1), 5)
        corr = g.decode(0)
        assert corr.edges == () and corr.weight == 0.0

    def test_deterministic_tie_breaking(self):
        """Two equal-weight boundary edges: the lower edge id must win, and
        repeated decodes must agree."""
        edges = [Edge(eid=0, u=0, v=BOUNDARY, weight=1.0, obs_mask=1),
                 Edge(eid=1, u=0, v=BOUNDARY, weight=1.0, obs_mask=0)]
        g = MatchingGraph(1, edges)
        first = g.decode(1)
        assert first.edges == (0,)
        for _ in range(5):
            assert g.decode(1).edges == first.edges

    def test_rejects_high_degree_mechanism(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.001))
        mechs = enumerate_error_mechanisms(c)
        from msdsim.dem import ErrorMechanism
        bad = mechs + [ErrorMechanism(prob=0.001, origin_patch=0, basis="Z",
                                      home_dets=(0, 1, 2), foreign_dets=(),
                                      obs_mask=0, check_mask=0)]
        with pytest.raises(ValueError):
            IterativeDecoder(c, bad)

    def test_blossom_fallback_agrees_with_dp(self):
        rng = np.random.default_rng(13)
        g = _random_graph(rng, 20)
        defects = list(range(16))  # above the subset-DP limit
        pairs = g._match_blossom(defects)
        covered = sorted(q for pair in pairs for q in pair if q != BOUNDARY)
        assert covered == defects
        w_blossom = sum(
            float(g._dist[a, g.n if b == BOUNDARY else b]) for a, b in pairs)
        w_exact = brute_force_decode(g, sum(1 << i for i in defects[:10]))
        pairs10 = g._match(defects[:10])
        w_dp = sum(float(g._dist[a, g.n if b == BOUNDARY else b])
                   for a, b in pairs10)
        assert w_dp == pytest.approx(w_exact, abs=1e-9)


@pytest.fixture(scope="module")
def pipeline():
    c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3,
                                   NoiseModel(1e-3, 0.0))
    return c, IterativeDecoder(c, enumerate_error_mechanisms(c))


class TestIterativeLoop:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IterativeConfig(max_global_iters=0)

    def test_trivial_shot_converges_in_one(self, pipeline):
        c, dec = pipeline
        res = dec.decode_shot(dec.syndrome_masks(np.zeros(len(c.detectors), bool)))
        assert res.converged and res.iterations_used == 1
        assert res.obs_mask == 0 and res.check_mask == 0

    def test_single_mechanisms_decode_exactly(self, pipeline):
        """Every single fault must be corrected: acceptance checks and the
        output observable are reproduced bit-exactly.  (The Clifford-frame
        observable is gauge and excluded: some faults flipping it alone are
        detector-silent by construction.)"""
        c, dec = pipeline
        mechs = enumerate_error_mechanisms(c)
        nd = len(c.detectors)
        for m in mechs:
            det = np.zeros(nd, dtype=bool)
            for i in m.home_dets + m.foreign_dets:
                det[i] = True
            res = dec.decode_shot(dec.syndrome_masks(det))
            assert res.check_mask == m.check_mask
            assert (res.obs_mask ^ m.obs_mask) & 1 == 0

    def test_foreign_toggle_changes_neighbour_syndrome(self, pipeline):
        """A fault with a foreign signature must drive a second iteration."""
        c, dec = pipeline
        mechs = enumerate_error_mechanisms(c)
        m = next(m for m in mechs if m.foreign_dets and m.home_dets)
        det = np.zeros(len(c.detectors), dtype=bool)
        for i in m.home_dets:
            det[i] = True
        res = dec.decode_shot(dec.syndrome_masks(det))
        assert res.converged
        if any(corr.foreign_dets for corr in res.corrections.values()):
            assert res.iterations_used >= 2

    def test_iteration_cap_respected(self, pipeline):
        c, dec = pipeline
        rng = np.random.default_rng(3)
        det = rng.random(len(c.detectors)) < 0.05
        res = dec.decode_shot(dec.syndrome_masks(det),
                              IterativeConfig(max_global_iters=1))
        assert res.iterations_used == 1


class TestPredictOutcome:
    def test_bit_positions(self):
        from msdsim.decoder import DecodeResult
        res = DecodeResult(corrections={}, obs_mask=0b10, check_mask=0b101,
                           iterations_used=1, converged=True)
        accepted, frame, err = predict_outcome(res, check_bits=0b101, obs_bits=0b01)
        assert accepted            # correction cancels the raw check bits
        assert frame               # corrected frame bit = 1^0... bit1: 0^1
        assert err                 # corrected output bit = 1^0
        accepted2, _, err2 = predict_outcome(res, check_bits=0b100, obs_bits=0b10)
        assert not accepted2 and not err2
