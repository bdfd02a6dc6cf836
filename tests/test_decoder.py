"""Matching-graph decoding tests: optimality, determinism, iteration loop,
and differential checks of the cluster-split matcher and the incremental loop
against the whole-syndrome oracles in `matching_oracle`."""
import numpy as np
import pytest

from matching_oracle import (brute_force_decode, cluster_match, det_slots,
                             dijkstra_path, dijkstra_tables, reference_decode_shot,
                             slot_order, useful_rows, walk_syndrome_masks,
                             whole_syndrome_decode)
from sampler_oracle import planes
from msdsim import harness
from msdsim.builders import (NoiseModel, build_cnot_subcircuit_experiment,
                             build_distillation_circuit, build_memory_circuit)
from msdsim.decoder import (_DP_LIMIT, BOUNDARY, EMPTY, Edge, IterativeDecoder,
                            MatchingGraph, predict_outcome)
from msdsim.dem import enumerate_error_mechanisms
from msdsim.protocols import FIFTEEN_TO_ONE, SEVEN_TO_ONE, build_protocol
from msdsim.sampler import CHUNK, fault_table, sample


def _random_graph(rng: np.random.Generator, n: int) -> MatchingGraph:
    edges = []
    for i in range(n):
        edges.append(Edge(u=i, v=BOUNDARY,
                          weight=float(rng.uniform(0.5, 4.0))))
    for _ in range(2 * n):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        edges.append(Edge(u=int(u), v=int(v),
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
        edges = [Edge(u=0, v=BOUNDARY, weight=1.0, obs_mask=1),
                 Edge(u=0, v=BOUNDARY, weight=1.0, obs_mask=0)]
        g = MatchingGraph(1, edges)
        first = g.decode(1)
        assert first.edges == (0,)
        for _ in range(5):
            assert g.decode(1).edges == first.edges

    def test_rejects_high_degree_mechanism(self):
        c = build_memory_circuit(3, 3, NoiseModel(0.001))
        mechs = enumerate_error_mechanisms(fault_table(c))
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
        w_exact = brute_force_decode(g, sum(1 << i for i in defects[:10]))
        assert _pairs_weight(g, g._match(defects[:10])) == pytest.approx(
            w_exact, abs=1e-9)
        for trial in range(40):
            g = _random_graph(rng, 20)
            k = int(rng.integers(2, 13))
            some = sorted(rng.choice(20, size=k, replace=False).tolist())
            assert k <= _DP_LIMIT
            w_dp = _pairs_weight(g, g._match(some))
            w_blossom = _pairs_weight(g, g._match_blossom(some))
            assert w_blossom == pytest.approx(w_dp, abs=1e-9), trial


    def test_equal_weight_paths_go_through_the_lowest_intermediate_node(self):
        """Two a->b paths of weight 2: 0-1-3 and 0-2-3, flipping different
        observables.  Node 2's path is found first from node 0 (its first
        edge is lighter), but node 1 is the lowest intermediate node that
        shortens 0->3, so the path goes through node 1."""
        edges = [Edge(u=0, v=2, weight=0.5, obs_mask=0b10),
                 Edge(u=2, v=3, weight=1.5),
                 Edge(u=0, v=1, weight=1.5, obs_mask=0b01),
                 Edge(u=1, v=3, weight=0.5)]
        edges += [Edge(u=i, v=BOUNDARY, weight=5.0) for i in range(4)]
        g = MatchingGraph(4, edges)
        assert g._dist[0, 3] == 2.0
        corr = g.decode(0b1001)
        assert (corr.edges, corr.weight, corr.obs_mask) == ((2, 3), 2.0, 0b01)

    def test_node_without_edges_cannot_reach_the_boundary(self):
        g = MatchingGraph(2, [Edge(u=0, v=BOUNDARY, weight=1.0)])
        assert g.decode(0b01).weight == 1.0
        with pytest.raises(RuntimeError, match="cannot reach the boundary"):
            g.decode(0b10)

    def test_pair_cut_off_from_the_boundary(self):
        """Nodes 1 and 2 are joined to each other only: together they match,
        but either alone cannot reach the boundary."""
        g = MatchingGraph(3, [Edge(u=0, v=BOUNDARY, weight=1.0),
                              Edge(u=1, v=2, weight=0.5)])
        assert g.decode(0b110).weight == 0.5
        with pytest.raises(RuntimeError, match="cannot reach the boundary"):
            g.decode(0b010)


def _pairs_weight(g: MatchingGraph, pairs) -> float:
    return sum(float(g._dist[a, g.n if b == BOUNDARY else b]) for a, b in pairs)


def _split(dec: IterativeDecoder, det: np.ndarray) -> dict:
    """Per-graph syndromes of one shot's detector bit vector."""
    return dec.syndrome_masks(sum(1 << d for d in np.flatnonzero(det).tolist()))


@pytest.fixture(scope="module")
def pipeline():
    c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3,
                                   NoiseModel(1e-3))
    return c, IterativeDecoder(c, enumerate_error_mechanisms(fault_table(c)))


class TestIterativeLoop:
    def test_trivial_shot_converges_in_one(self, pipeline):
        c, dec = pipeline
        res = dec.decode_shot(_split(dec, np.zeros(len(c.detectors), bool)))
        assert res.converged and res.iterations_used == 1
        assert res.obs_mask == 0 and res.check_mask == 0

    def test_single_mechanisms_decode_exactly(self, pipeline):
        """Every single fault must be corrected: acceptance checks and the
        output observable are reproduced bit-exactly.  (The Clifford-frame
        observable is gauge and excluded: some faults flipping it alone are
        detector-silent by construction.)"""
        c, dec = pipeline
        mechs = enumerate_error_mechanisms(fault_table(c))
        nd = len(c.detectors)
        for m in mechs:
            det = np.zeros(nd, dtype=bool)
            for i in m.home_dets + m.foreign_dets:
                det[i] = True
            res = dec.decode_shot(_split(dec, det))
            assert res.check_mask == m.check_mask
            assert (res.obs_mask ^ m.obs_mask) & 1 == 0

    def test_foreign_toggle_changes_neighbour_syndrome(self, pipeline):
        """A fault with a foreign signature must drive a second iteration."""
        c, dec = pipeline
        mechs = enumerate_error_mechanisms(fault_table(c))
        m = next(m for m in mechs if m.foreign_dets and m.home_dets)
        det = np.zeros(len(c.detectors), dtype=bool)
        for i in m.home_dets:
            det[i] = True
        res = dec.decode_shot(_split(dec, det))
        assert res.converged
        if any(corr.toggles for corr in res.corrections.values()):
            assert res.iterations_used >= 2

    def test_iteration_cap_respected(self, pipeline):
        c, dec = pipeline
        rng = np.random.default_rng(3)
        det = rng.random(len(c.detectors)) < 0.05
        res = dec.decode_shot(_split(dec, det), 1)
        assert res.iterations_used == 1


class TestPredictOutcome:
    def test_bit_positions(self):
        from msdsim.decoder import DecodeResult
        res = DecodeResult(corrections={}, obs_mask=0b10, check_mask=0b101,
                           iterations_used=1, converged=True)
        accepted, frame, err = predict_outcome(res, checks=0b101, observables=0b01)
        assert accepted            # correction cancels the raw check bits
        assert frame               # corrected frame bit = 1^0... bit1: 0^1
        assert err                 # corrected output bit = 1^0
        accepted2, _, err2 = predict_outcome(res, checks=0b100, observables=0b10)
        assert not accepted2 and not err2


_WORKLOADS = {
    # (protocol, circuit noise, p_in)
    "distill15-d3-noisy": (FIFTEEN_TO_ONE, NoiseModel(3e-3), 0.1),
    "distill7-d3": (SEVEN_TO_ONE, NoiseModel(1e-3), 0.01),
}


@pytest.fixture(scope="module", params=sorted(_WORKLOADS))
def sampled(request):
    """(decoder, per-shot syndromes) for 2000 sampled shots of a workload."""
    protocol, noise, p_in = _WORKLOADS[request.param]
    c = build_distillation_circuit(build_protocol(protocol), 3, noise)
    table = fault_table(c)
    dec = IterativeDecoder(c, enumerate_error_mechanisms(table))
    batch = sample(table, 2000, seed=41, p_in=p_in)
    det_mask = (1 << len(c.detectors)) - 1
    return dec, [dec.syndrome_masks(sig & det_mask) for sig in batch.unpack()]


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_edges_follow_mechanisms(workload):
    """Every mechanism with home detectors is one edge of its graph, in DEM
    order: its ends are the local ids of its home detectors and its toggles
    the slot bits of its foreign detectors, both derived from the circuit's
    detectors rather than the decoder's tables."""
    protocol, noise, _ = _WORKLOADS[workload]
    c = build_distillation_circuit(build_protocol(protocol), 3, noise)
    mechs = enumerate_error_mechanisms(fault_table(c))
    dec = IterativeDecoder(c, mechs)
    local = [(key, bit.bit_length() - 1) for key, bit in det_slots(dec)]
    slot_bit = {d: 1 << s for s, d in enumerate(slot_order(dec))}
    want = {key: [] for key in dec.graphs}
    for m in mechs:
        if not m.home_dets:
            continue
        ends = [local[d] for d in m.home_dets]
        assert {key for key, _ in ends} == {(m.origin_patch, m.basis)}
        toggles = 0
        for d in m.foreign_dets:
            toggles ^= slot_bit[d]
        want[ends[0][0]].append((ends[0][1], ends[1][1] if len(ends) == 2 else BOUNDARY,
                                 m.obs_mask, m.check_mask, toggles))
    got = {key: [(e.u, e.v, e.obs_mask, e.check_mask, e.toggles) for e in g.edges]
           for key, g in dec.graphs.items()}
    assert got == want
    assert sum(e[4] != 0 for edges in want.values() for e in edges) > 10


def _recorded_decodes(dec: IterativeDecoder, shots) -> set[tuple]:
    """Every (graph key, syndrome) that decoding `shots` asks a graph for."""
    seen: set[tuple] = set()
    for key, g in dec.graphs.items():
        def recorder(s, key=key, orig=g.decode):
            seen.add((key, s))
            return orig(s)
        g.decode = recorder
    try:
        for raw in shots:
            dec.decode_shot(raw)
    finally:
        for g in dec.graphs.values():
            del g.decode
    return seen


def _check_correction(g: MatchingGraph, syndrome: int, corr) -> None:
    """The correction's edges have `syndrome` as their boundary and weigh
    `corr.weight`, so it is an optimal correction when the weight is."""
    boundary = 0
    total = 0.0
    for i in corr.edges:
        e = g.edges[i]
        boundary ^= 1 << e.u
        if e.v != BOUNDARY:
            boundary ^= 1 << e.v
        total += e.weight
    assert boundary == syndrome
    assert total == pytest.approx(corr.weight, abs=1e-9)


class TestClusterSplit:
    def test_sampled_decodes_match_whole_syndrome_oracle(self, sampled):
        """Every per-graph decode of 2000 sampled shots has the oracle's
        weight; a different correction is allowed only on an equal-weight
        tie, and the ties are counted."""
        dec, shots = sampled
        decodes = _recorded_decodes(dec, shots)
        ties = flips = 0
        for key, s in sorted(decodes):
            g = dec.graphs[key]
            got, want = g.decode(s), whole_syndrome_decode(g, s)
            assert got.weight == pytest.approx(want.weight, abs=1e-9), (key, s)
            if got.edge_mask != want.edge_mask:
                ties += 1
                _check_correction(g, s, got)
                _check_correction(g, s, want)
                flips += (got.obs_mask, got.check_mask) != (want.obs_mask,
                                                            want.check_mask)
        print(f"{len(decodes)} distinct decodes; {ties} equal-weight ties "
              f"chose other edges, {flips} of them other obs/check masks")
        assert len(decodes) > 500
        assert ties <= len(decodes) // 100

    def test_far_apart_clusters_never_reach_blossom(self, monkeypatch):
        """20-30 defects in clusters far from each other: the split keeps
        every component within the DP, and the weight is the oracle's (which
        runs blossom on the whole syndrome)."""
        rng = np.random.default_rng(5)
        blossoms = []
        orig = MatchingGraph._match_blossom

        def counting(self, defects):
            blossoms.append(len(defects))
            return orig(self, defects)

        for trial in range(10):
            clusters, size = 10, 4
            edges = []
            for c in range(clusters):
                base = c * size
                for i in range(size):
                    edges.append(Edge(u=base + i, v=BOUNDARY,
                                      weight=float(rng.uniform(2.0, 3.0))))
                    for j in range(i + 1, size):
                        edges.append(Edge(u=base + i, v=base + j,
                                          weight=float(rng.uniform(0.3, 1.0))))
                if c:  # a long bridge to the previous cluster
                    edges.append(Edge(u=base, v=base - size,
                                      weight=20.0))
            g = MatchingGraph(clusters * size, edges)
            k = int(rng.integers(20, 31))
            syndrome = sum(1 << int(i) for i in
                           rng.choice(clusters * size, size=k, replace=False))
            monkeypatch.setattr(MatchingGraph, "_match_blossom", counting)
            got = g.decode(syndrome)
            monkeypatch.setattr(MatchingGraph, "_match_blossom", orig)
            assert blossoms == [], trial
            want = whole_syndrome_decode(g, syndrome)
            assert got.weight == pytest.approx(want.weight, abs=1e-9), trial
            _check_correction(g, syndrome, got)


def _fresh(g: MatchingGraph) -> MatchingGraph:
    """A copy of `g` with empty caches and memo."""
    return MatchingGraph(g.n, g.edges)


class TestMemoisedMatch:
    def test_sampled_clusters_match_per_cluster_dp(self, sampled, monkeypatch):
        """Every cluster of 2000 sampled shots, matched on graphs whose memo
        carries over from cluster to cluster, gets the per-cluster DP's pair
        list exactly."""
        dec, shots = sampled
        decodes = sorted(_recorded_decodes(dec, shots))
        fresh = {key: _fresh(g) for key, g in dec.graphs.items()}
        seen = []
        orig = MatchingGraph._match

        def recording(self, defects):
            pairs = orig(self, defects)
            seen.append((self, list(defects), pairs))
            return pairs

        monkeypatch.setattr(MatchingGraph, "_match", recording)
        for key, s in decodes:
            fresh[key].decode(s)
        monkeypatch.setattr(MatchingGraph, "_match", orig)
        for g, defects, pairs in seen:
            assert pairs == cluster_match(g, defects), defects
        assert len(seen) > 500
        shared = sum(len(g._best) for g in fresh.values())
        print(f"{len(seen)} clusters; {shared} DP states kept over all graphs")

    def test_random_ties_match_per_cluster_dp(self):
        """Integer weights make equal-weight pairings common: the memo keeps
        the per-cluster DP's tie rule on every subset it is asked for."""
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(6, 16))
            edges = [Edge(u=i, v=BOUNDARY, weight=float(rng.integers(1, 4)))
                     for i in range(n)]
            for _ in range(3 * n):
                u, v = (int(x) for x in rng.integers(0, n, 2))
                if u != v:
                    edges.append(Edge(u=u, v=v,
                                      weight=float(rng.integers(1, 3))))
            g = MatchingGraph(n, edges)
            for _ in range(40):
                k = int(rng.integers(1, min(n, 10) + 1))
                defects = sorted(rng.choice(n, size=k, replace=False).tolist())
                assert g._match(defects) == cluster_match(g, defects), (trial, defects)

    def test_memo_cap_holds_and_changes_nothing(self, sampled):
        """A memo capped at 3 states and an uncapped one give the same
        corrections; with the cluster cache off every decode runs the DP."""
        dec, shots = sampled
        decodes = sorted(_recorded_decodes(dec, shots[:300]))
        grew = False
        for key, g in dec.graphs.items():
            assert len(g._best) <= g.memo_cap and len(g._choice) <= g.memo_cap
            tiny, big = _fresh(g), _fresh(g)
            tiny.memo_cap, big.memo_cap = 3, 10**9
            tiny.cache_cap = big.cache_cap = 0
            for k, s in decodes:
                if k != key:
                    continue
                a, b = tiny.decode(s), big.decode(s)
                assert (a.edge_mask, a.weight, a.obs_mask, a.check_mask,
                        a.toggles) == (b.edge_mask, b.weight, b.obs_mask,
                                       b.check_mask, b.toggles)
                assert len(tiny._best) <= 3 and len(tiny._choice) <= 3
            grew |= len(big._best) > 3
        assert grew


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_packed_shots_split_like_the_walk(workload, monkeypatch):
    """Over a run of two chunks whose length is no multiple of 8, every
    shot's packed int splits into the masks the per-detector walk gives for
    the same shot of one whole `sample` call."""
    protocol, noise, p_in = _WORKLOADS[workload]
    pipeline = harness.DecodingPipeline.build(
        build_distillation_circuit(build_protocol(protocol), 3, noise))
    dec = pipeline.decoder
    shots = CHUNK + 13
    got = []
    orig = dec.syndrome_masks

    def split(shot):
        got.append(orig(shot))
        return got[-1]

    monkeypatch.setattr(dec, "syndrome_masks", split)
    monkeypatch.setattr(dec, "decode_shot", lambda raw, max_iters: None)
    cfg = harness.ExperimentConfig(protocol=protocol, p_circuit=noise.p_circuit,
                                   p_in=p_in, shots=shots, seed=17)
    assert sum(1 for _ in harness._decoded_shots(pipeline, cfg)) == shots
    batch = sample(pipeline.table, shots, cfg.seed, None, 0, p_in)
    det = planes(batch, pipeline.circuit)[0]
    slots = det_slots(dec)
    assert len(got) == shots
    for s in range(shots):
        assert got[s] == walk_syndrome_masks(slots, det[:, s]), s
    assert sum(map(bool, got)) > shots // 2


_BUILDERS = {
    "memory-d3": lambda: build_memory_circuit(3, 3, NoiseModel(1e-3)),
    **{f"{protocol}-d{d}": lambda protocol=protocol, d=d: build_distillation_circuit(
        build_protocol(protocol), d, NoiseModel(1e-3))
       for protocol in (SEVEN_TO_ONE, FIFTEEN_TO_ONE) for d in (3, 5)},
    **{f"cnot-{basis}": lambda basis=basis: build_cnot_subcircuit_experiment(
        build_protocol(SEVEN_TO_ONE), 3, NoiseModel(1e-3), basis) for basis in "ZX"},
}


_ORACLE_CIRCUITS = {
    **{f"memory-d{d}": lambda d=d: build_memory_circuit(d, d, NoiseModel(1e-3))
       for d in (3, 5)},
    **{f"{protocol}-d{d}": lambda protocol=protocol, d=d: build_distillation_circuit(
        build_protocol(protocol), d, NoiseModel(1e-3))
       for protocol, ds in ((SEVEN_TO_ONE, (3, 5, 7)), (FIFTEEN_TO_ONE, (3, 5)))
       for d in ds},
    **{f"cnot-{basis}-d3": lambda basis=basis: build_cnot_subcircuit_experiment(
        build_protocol(SEVEN_TO_ONE), 3, NoiseModel(1e-3), basis) for basis in "ZX"},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CIRCUITS))
def test_distances_and_paths_match_dijkstra(name):
    """Every graph's Floyd–Warshall tables against scipy's Dijkstra.  At d=3
    the distances are bitwise equal and every pair's path is Dijkstra's.
    Above d=3 the sums run in another order, and equal-weight paths may
    differ: distances agree within 1e-12.  Everywhere, every path is a chain
    of graph edges from a to b that weighs the Dijkstra distance and flips
    the XOR of its edges' masks."""
    c = _ORACLE_CIRCUITS[name]()
    dec = IterativeDecoder(c, enumerate_error_mechanisms(fault_table(c)))
    exact = name.endswith("-d3")
    pairs = 0
    for key, g in dec.graphs.items():
        n = g.n
        dist, pred, pair_edge = dijkstra_tables(g)
        if exact:
            assert np.array_equal(g._dist, dist), key
        else:
            assert np.array_equal(np.isinf(g._dist), np.isinf(dist)), key
            assert np.allclose(g._dist, dist, rtol=0, atol=1e-12), key
        assert g._useful == useful_rows(dist, n), key
        for a in range(n):
            for b in range(a + 1, n + 1):
                if np.isinf(dist[a, b]):
                    continue
                pairs += 1
                got = g._path(a, b)
                ends = obs = chk = toggles = 0
                weight = 0.0
                for i in got.edges:
                    e = g.edges[i]
                    ends ^= 1 << e.u ^ 1 << (n if e.v == BOUNDARY else e.v)
                    weight += e.weight
                    obs ^= e.obs_mask
                    chk ^= e.check_mask
                    toggles ^= e.toggles
                assert (got.obs_mask, got.check_mask, got.toggles) == (obs, chk, toggles)
                assert ends == 1 << a | 1 << b, (key, a, b)
                assert weight == pytest.approx(dist[a, b], abs=1e-9), (key, a, b)
                if exact:
                    want = sum(1 << i for i in dijkstra_path(pred, pair_edge, a, b))
                    assert got.edge_mask == want, (key, a, b)
    assert pairs > 100


class TestSlotOrder:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_builders_emit_detectors_in_slot_order(self, name):
        """Detector s is in slot s: the slot order the oracle derives from
        the circuit's detectors is the identity."""
        c = _BUILDERS[name]()
        assert slot_order(IterativeDecoder(c, [])) == list(range(len(c.detectors)))

    def test_unsorted_detectors_are_rejected(self):
        c = _BUILDERS["SevenToOne-d3"]()
        mechs = enumerate_error_mechanisms(fault_table(c))
        c.detectors[0], c.detectors[-1] = c.detectors[-1], c.detectors[0]
        with pytest.raises(ValueError, match="detectors are not in slot order"):
            IterativeDecoder(c, mechs)


class TestIncrementalLoop:
    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_matches_reference_loop(self, sampled, max_iters):
        """Re-decoding only the graphs whose syndrome changed gives the same
        result as re-decoding every graph on every iteration."""
        dec, shots = sampled
        for i, raw in enumerate(shots[:1000]):
            got = dec.decode_shot(raw, max_iters)
            want = reference_decode_shot(dec, raw, max_iters)
            assert (got.obs_mask, got.check_mask, got.iterations_used,
                    got.converged) == (want.obs_mask, want.check_mask,
                                       want.iterations_used, want.converged), i
            assert {k: got.corrections.get(k, EMPTY).edge_mask for k in dec.graphs} == \
                {k: c.edge_mask for k, c in want.corrections.items()}, i


class TestCaches:
    def test_caps_hold_and_tiny_caps_change_nothing(self, sampled):
        dec, shots = sampled
        decodes = sorted(_recorded_decodes(dec, shots[:500]))
        for key, g in dec.graphs.items():
            tiny = _fresh(g)
            tiny.cache_cap = 3
            big = _fresh(g)
            big.cache_cap = 10**9
            calls = 0
            misses = []
            for _ in range(2):
                for k, s in decodes:
                    if k != key:
                        continue
                    calls += 1
                    a, b = tiny.decode(s), big.decode(s)
                    assert (a.edge_mask, a.weight, a.obs_mask, a.check_mask,
                            a.toggles) == (b.edge_mask, b.weight, b.obs_mask,
                                           b.check_mask, b.toggles)
                misses.append(big.component_misses)
            assert len(tiny._cache) <= 3 and len(g._cache) <= g.cache_cap
            for h in (tiny, big):
                assert h.syndrome_hits + h.syndrome_misses == calls
            # Uncapped, the second pass finds every component in the cache.
            assert misses[0] == misses[1] == len(big._cache)

    def test_zero_syndrome_reads_shared_empty_correction(self, pipeline):
        """A zero syndrome costs no decode call and no cache entry."""
        c, dec = pipeline
        zero = _split(dec, np.zeros(len(c.detectors), bool))
        assert _recorded_decodes(dec, [zero]) == set()
        g = next(iter(dec.graphs.values()))
        before = (g.syndrome_hits, g.syndrome_misses, len(g._cache))
        assert g.decode(0) is g.decode(0)
        assert (g.syndrome_hits, g.syndrome_misses, len(g._cache)) == before
