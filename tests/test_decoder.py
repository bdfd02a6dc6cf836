"""Matching-graph decoding tests: optimality, determinism, iteration loop,
and differential checks of the cluster-split matcher and the incremental loop
against the whole-syndrome oracles in `matching_oracle`."""
import gc
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from matching_oracle import (brute_force_decode, cluster_correction, cluster_dp,
                             cluster_match, det_slots, dijkstra_path, dijkstra_tables,
                             reference_decode_shot, slot_order, useful_rows,
                             walk_syndrome_masks, whole_syndrome_decode)
from sampler_oracle import planes
from msdsim import decoder, harness
from msdsim.builders import (NoiseModel, build_cnot_subcircuit_experiment,
                             build_distillation_circuit, build_memory_circuit)
from msdsim.decoder import (_DP_LIMIT, BOUNDARY, DecodeResult, Edge,
                            IterativeDecoder, MatchingGraph)
from msdsim.dem import ErrorMechanism, _bits, enumerate_error_mechanisms
from msdsim.protocols import FIFTEEN_TO_ONE, SEVEN_TO_ONE, build_protocol
from msdsim.sampler import CHUNK, fault_table, sample, signature_columns


def _random_graph(rng: np.random.Generator, n: int) -> MatchingGraph:
    """Edge i flips bit i alone, so a correction's flips are its edge set."""
    edges = []
    for i in range(n):
        edges.append(Edge(u=i, v=BOUNDARY,
                          weight=float(rng.uniform(0.5, 4.0)), flips=1 << len(edges)))
    for _ in range(2 * n):
        u, v = rng.integers(0, n, 2)
        if u == v:
            continue
        edges.append(Edge(u=int(u), v=int(v),
                          weight=float(rng.uniform(0.2, 3.0)), flips=1 << len(edges)))
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
            corr = cluster_correction(g, syndrome)
            assert g.decode(syndrome) == corr.flips, trial
            want = brute_force_decode(g, syndrome)
            assert corr.weight == pytest.approx(want, abs=1e-9), trial

    def test_empty_syndrome(self):
        g = _random_graph(np.random.default_rng(1), 5)
        assert g.decode(0) == 0
        corr = cluster_correction(g, 0)
        assert corr.edges == () and corr.weight == 0.0

    def test_deterministic_tie_breaking(self):
        """Two equal-weight boundary edges: the lower edge id must win, and
        repeated decodes must agree."""
        edges = [Edge(u=0, v=BOUNDARY, weight=1.0, flips=0b01),
                 Edge(u=0, v=BOUNDARY, weight=1.0, flips=0b10)]
        g = MatchingGraph(1, edges)
        first = g.decode(1)
        assert first == 0b01
        assert cluster_correction(g, 1).edges == (0,)
        for _ in range(5):
            assert g.decode(1) == first

    def test_lowest_id_wins_between_parallel_edges(self):
        """Two equally light edges join nodes 0 and 1: syndrome 0b11 decodes
        to the flips of whichever is listed first, in either order."""
        a = Edge(u=0, v=1, weight=1.0, flips=1 << 0)
        b = Edge(u=0, v=1, weight=1.0, flips=1 << 1)
        far = [Edge(u=i, v=BOUNDARY, weight=5.0, flips=1 << (2 + i)) for i in range(2)]
        assert MatchingGraph(2, [a, b] + far).decode(0b11) == a.flips
        assert MatchingGraph(2, [b, a] + far).decode(0b11) == b.flips

    def test_rejects_high_degree_mechanism(self):
        """A mechanism whose signature flips three detectors of its own
        graph has no edge."""
        c = build_memory_circuit(3, 3, NoiseModel(0.001))
        mechs = enumerate_error_mechanisms(fault_table(c))
        home = [i for i, d in enumerate(c.detectors) if (d.home_patch, d.basis) == (0, "Z")]
        bad = mechs + [ErrorMechanism(prob=0.001, origin_patch=0, basis="Z",
                                      sig=sum(1 << i for i in home[:3]))]
        with pytest.raises(ValueError, match="3 home detectors"):
            IterativeDecoder(c.detectors, bad)

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
        edges = [Edge(u=0, v=2, weight=0.5, flips=0b10),
                 Edge(u=2, v=3, weight=1.5),
                 Edge(u=0, v=1, weight=1.5, flips=0b01),
                 Edge(u=1, v=3, weight=0.5)]
        edges += [Edge(u=i, v=BOUNDARY, weight=5.0) for i in range(4)]
        g = MatchingGraph(4, edges)
        assert g._dist[0, 3] == 2.0
        assert g.decode(0b1001) == 0b01
        corr = cluster_correction(g, 0b1001)
        assert (corr.edges, corr.weight, corr.flips) == ((2, 3), 2.0, 0b01)

    def test_node_without_edges_cannot_reach_the_boundary(self):
        g = MatchingGraph(2, [Edge(u=0, v=BOUNDARY, weight=1.0, flips=1)])
        assert g.decode(0b01) == 1
        assert cluster_correction(g, 0b01).weight == 1.0
        with pytest.raises(RuntimeError, match="cannot reach the boundary"):
            g.decode(0b10)

    def test_pair_cut_off_from_the_boundary(self):
        """Nodes 1 and 2 are joined to each other only: together they match,
        but either alone cannot reach the boundary."""
        g = MatchingGraph(3, [Edge(u=0, v=BOUNDARY, weight=1.0, flips=0b01),
                              Edge(u=1, v=2, weight=0.5, flips=0b10)])
        assert g.decode(0b110) == 0b10
        assert cluster_correction(g, 0b110).weight == 0.5
        with pytest.raises(RuntimeError, match="cannot reach the boundary"):
            g.decode(0b010)


def _pairs_weight(g: MatchingGraph, pairs) -> float:
    return sum(float(g._dist[a, g.n if b == BOUNDARY else b]) for a, b in pairs)


def _split(dec: IterativeDecoder, det: np.ndarray) -> dict:
    """Per-graph syndromes of one shot's detector bit vector."""
    return dec.syndrome_masks(sum(1 << d for d in np.flatnonzero(det).tolist()))


def _home_foreign(c, m: ErrorMechanism) -> tuple[list[int], list[int]]:
    """The detectors a mechanism flips, split by whether they are homed to
    its origin patch, read off the circuit's detectors."""
    dets = _bits(m.sig & (1 << len(c.detectors)) - 1)
    home = [d for d in dets if c.detectors[d].home_patch == m.origin_patch]
    return home, [d for d in dets if d not in home]


@pytest.fixture(scope="module")
def pipeline():
    c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3,
                                   NoiseModel(1e-3))
    return c, IterativeDecoder(c.detectors, enumerate_error_mechanisms(fault_table(c)))


class TestIterativeLoop:
    def test_trivial_shot_converges_in_one(self, pipeline):
        c, dec = pipeline
        res = dec.decode_shot(_split(dec, np.zeros(len(c.detectors), bool)), 3)
        assert res.converged and res.iterations_used == 1
        assert res.flips == 0

    def test_single_mechanisms_decode_exactly(self, pipeline):
        """Every single fault must be corrected: acceptance checks and the
        output observable are reproduced bit-exactly."""
        c, dec = pipeline
        mechs = enumerate_error_mechanisms(fault_table(c))
        nd = len(c.detectors)
        for m in mechs:
            res = dec.decode_shot(dec.syndrome_masks(m.sig & (1 << nd) - 1), 3)
            assert res.flips >> nd == m.sig >> nd

    def test_foreign_toggle_changes_neighbour_syndrome(self, pipeline):
        """A fault with a foreign signature must drive a second iteration."""
        c, dec = pipeline
        mechs = enumerate_error_mechanisms(fault_table(c))
        home = next(h for h, f in (_home_foreign(c, m) for m in mechs) if h and f)
        res = dec.decode_shot(dec.syndrome_masks(sum(1 << d for d in home)), 3)
        assert res.converged
        det_mask = (1 << len(c.detectors)) - 1
        if any(corr & det_mask for corr in res.corrections.values()):
            assert res.iterations_used >= 2

    def test_iteration_cap_respected(self, pipeline):
        c, dec = pipeline
        rng = np.random.default_rng(3)
        det = rng.random(len(c.detectors)) < 0.05
        res = dec.decode_shot(_split(dec, det), 1)
        assert res.iterations_used == 1


_WORKLOADS = {
    # (protocol, circuit noise, p_in)
    "distill15-d3-noisy": (FIFTEEN_TO_ONE, NoiseModel(3e-3), 0.1),
    "distill7-d3": (SEVEN_TO_ONE, NoiseModel(1e-3), 0.01),
}


@pytest.fixture(scope="module", params=sorted(_WORKLOADS))
def sampled(request):
    """(circuit, decoder, per-shot syndromes) for 2000 sampled shots of a
    workload."""
    protocol, noise, p_in = _WORKLOADS[request.param]
    c = build_distillation_circuit(build_protocol(protocol), 3, noise)
    table = fault_table(c)
    dec = IterativeDecoder(c.detectors, enumerate_error_mechanisms(table))
    batch = sample(table, 2000, seed=41, p_in=p_in)
    det_mask = (1 << len(c.detectors)) - 1
    return c, dec, [dec.syndrome_masks(sig & det_mask) for sig in batch.unpack()]


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_edges_follow_mechanisms(workload):
    """Every mechanism with home detectors is one edge of its graph, in DEM
    order: its ends are the local ids of its home detectors, and its flips
    the slot bits of its foreign detectors with its signature's columns
    above the detectors, derived from the circuit's detectors rather than
    the decoder's tables."""
    protocol, noise, _ = _WORKLOADS[workload]
    c = build_distillation_circuit(build_protocol(protocol), 3, noise)
    mechs = enumerate_error_mechanisms(fault_table(c))
    dec = IterativeDecoder(c.detectors, mechs)
    nd = len(c.detectors)
    local = [(key, bit.bit_length() - 1) for key, bit in det_slots(c)]
    slot_bit = {d: 1 << s for s, d in enumerate(slot_order(c))}
    want = {key: [] for key in dec.graphs}
    for m in mechs:
        home, foreign = _home_foreign(c, m)
        if not home:
            continue
        ends = [local[d] for d in home]
        assert {key for key, _ in ends} == {(m.origin_patch, m.basis)}
        toggles = 0
        for d in foreign:
            toggles ^= slot_bit[d]
        want[ends[0][0]].append((ends[0][1], ends[1][1] if len(ends) == 2 else BOUNDARY,
                                 toggles | m.sig >> nd << nd))
    got = {key: [(e.u, e.v, e.flips) for e in g.edges] for key, g in dec.graphs.items()}
    assert got == want
    det_mask = (1 << nd) - 1
    assert sum(e[2] & det_mask != 0 for edges in want.values() for e in edges) > 10


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_edge_flips_are_in_signature_layout(workload):
    """Each mechanism's edge flips the columns of `signature_columns` that
    its signature flips, but for its home detectors: its foreign detectors,
    its observables and its checks, in that order.  Its home syndrome,
    decoded alone, gives back its own observable and check columns wherever
    the matcher picks its edge alone; other mechanisms of the same home
    detectors may weigh less, but that is so for under 15% of them."""
    protocol, noise, _ = _WORKLOADS[workload]
    c = build_distillation_circuit(build_protocol(protocol), 3, noise)
    mechs = enumerate_error_mechanisms(fault_table(c))
    dec = IterativeDecoder(c.detectors, mechs)
    nd, no = len(c.detectors), len(c.observables)
    cols = signature_columns(c)
    local = {d: bit for d, (_, bit) in enumerate(det_slots(c))}
    next_edge = {key: 0 for key in dec.graphs}
    own = 0
    for m in mechs:
        home, foreign = _home_foreign(c, m)
        if not home:
            continue
        key = (m.origin_patch, m.basis)
        g, i = dec.graphs[key], next_edge[key]
        next_edge[key] += 1
        flips = g.edges[i].flips
        assert flips == m.sig ^ sum(1 << d for d in home)
        obs = [j for j in range(no) if m.sig >> nd + j & 1]
        chk = [j for j in range(len(c.checks)) if m.sig >> nd + no + j & 1]
        assert [cols[col] for col in _bits(flips)] == \
            [c.detectors[d] for d in foreign] + [c.observables[j] for j in obs] + \
            [c.checks[j] for j in chk]
        syndrome = sum(local[d] for d in home)
        if cluster_correction(g, syndrome).edges == (i,):
            got = g.decode(syndrome)
            assert got == flips, m
            assert got >> nd == m.sig >> nd, m
            own += 1
    assert next_edge == {key: len(g.edges) for key, g in dec.graphs.items()}
    assert own > 0.85 * sum(next_edge.values())


@pytest.mark.parametrize("protocol,d", [(p, d) for p in (SEVEN_TO_ONE, FIFTEEN_TO_ONE)
                                        for d in (3, 5)])
def test_parallel_edge_ties_go_to_the_smallest_flips(protocol, d):
    """Per node pair, a graph keeps the lightest edge, and between equally
    light ones the edge with the smallest `flips` int.  That is the edge the
    mechanisms' order by (home detectors, foreign detectors, observable
    mask, check mask) picked first, recomputed here from each signature."""
    c = build_distillation_circuit(build_protocol(protocol), d, NoiseModel(1e-3))
    mechs = enumerate_error_mechanisms(fault_table(c))
    dec = IterativeDecoder(c.detectors, mechs)
    nd, no = len(c.detectors), len(c.observables)
    ties = 0
    for key, g in dec.graphs.items():
        mine = [m for m in mechs
                if (m.origin_patch, m.basis) == key and _home_foreign(c, m)[0]]
        assert len(mine) == len(g.edges)
        by_pair: dict[tuple[int, int], list] = {}
        for i, (m, e) in enumerate(zip(mine, g.edges)):
            home, foreign = _home_foreign(c, m)
            by_pair.setdefault((e.u, g.n if e.v == BOUNDARY else e.v), []).append(
                (e.weight, tuple(home), tuple(foreign), m.sig >> nd & (1 << no) - 1,
                 m.sig >> (nd + no), e.flips, i))
        assert by_pair.keys() == g._pair_edge.keys()
        for pair, cands in by_pair.items():
            lightest = min(w for w, *_ in cands)
            ties += sum(w == lightest for w, *_ in cands) > 1
            assert g._pair_edge[pair] == min(cands)[-1], (key, pair)
            assert g.edges[g._pair_edge[pair]].flips == min(
                (w, flips) for w, *_, flips, _ in cands)[1], (key, pair)
    assert ties > 0


def test_later_sweeps_never_decode_a_zero_syndrome(monkeypatch):
    """Over a seeded 2000-shot `distill15-d3-noisy` run, no graph is asked
    to decode a zero syndrome, in the first sweep or a later one: a zero
    syndrome's correction is 0 without a call."""
    seen = []
    orig = MatchingGraph.decode

    def recording(self, syndrome):
        seen.append(syndrome)
        return orig(self, syndrome)

    monkeypatch.setattr(MatchingGraph, "decode", recording)
    protocol, noise, p_in = _WORKLOADS["distill15-d3-noisy"]
    stats = harness.run_distillation(harness.ExperimentConfig(
        protocol=protocol, p_circuit=noise.p_circuit, p_in=p_in, shots=2000, seed=0))
    assert stats.iteration_hist.get(2, 0) + stats.iteration_hist.get(3, 0) > 1000
    assert len(seen) > 20000
    assert 0 not in seen


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
            dec.decode_shot(raw, 3)
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
        _, dec, shots = sampled
        decodes = _recorded_decodes(dec, shots)
        ties = flips = 0
        for key, s in sorted(decodes):
            g = dec.graphs[key]
            got, want = cluster_correction(g, s), whole_syndrome_decode(g, s)
            assert g.decode(s) == got.flips, (key, s)
            assert got.weight == pytest.approx(want.weight, abs=1e-9), (key, s)
            if got.edge_mask != want.edge_mask:
                ties += 1
                _check_correction(g, s, got)
                _check_correction(g, s, want)
                flips += got.flips != want.flips
        print(f"{len(decodes)} distinct decodes; {ties} equal-weight ties "
              f"chose other edges, {flips} of them other flips")
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
                                      weight=float(rng.uniform(2.0, 3.0)),
                                      flips=1 << len(edges)))
                    for j in range(i + 1, size):
                        edges.append(Edge(u=base + i, v=base + j,
                                          weight=float(rng.uniform(0.3, 1.0)),
                                          flips=1 << len(edges)))
                if c:  # a long bridge to the previous cluster
                    edges.append(Edge(u=base, v=base - size,
                                      weight=20.0, flips=1 << len(edges)))
            g = MatchingGraph(clusters * size, edges)
            k = int(rng.integers(20, 31))
            syndrome = sum(1 << int(i) for i in
                           rng.choice(clusters * size, size=k, replace=False))
            monkeypatch.setattr(MatchingGraph, "_match_blossom", counting)
            got = g.decode(syndrome)
            monkeypatch.setattr(MatchingGraph, "_match_blossom", orig)
            assert blossoms == [], trial
            corr = cluster_correction(g, syndrome)
            assert got == corr.flips, trial
            want = whole_syndrome_decode(g, syndrome)
            assert corr.weight == pytest.approx(want.weight, abs=1e-9), trial
            _check_correction(g, syndrome, corr)


def _fresh(g: MatchingGraph) -> MatchingGraph:
    """A copy of `g` with empty caches."""
    return MatchingGraph(g.n, g.edges)


class TestMemoisedMatch:
    def test_sampled_clusters_match_per_cluster_dp(self, sampled, monkeypatch):
        """Every cluster of 2000 sampled shots, matched one after another on
        the same graphs, gets the per-cluster DP's pair list exactly."""
        _, dec, shots = sampled
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

    def test_random_ties_match_per_cluster_dp(self):
        """Integer weights make equal-weight pairings common: `_match` keeps
        the per-cluster DP's tie rule on every subset it is asked for, one
        call after another on the same graph."""
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


def _assert_closed_form_is_the_dp(g: MatchingGraph, defects: list[int]):
    """`_match` on a cluster gives the per-cluster DP's pair list exactly,
    or the same failure.  Returns the pair list, or None on the failure."""
    try:
        want = cluster_match(g, defects)
    except RuntimeError as err:
        with pytest.raises(RuntimeError, match=re.escape(str(err))):
            g._match(defects)
        want = None
    else:
        assert g._match(defects) == want, defects
    return want


class TestClosedForms:
    @pytest.mark.parametrize("workload", sorted(_WORKLOADS))
    def test_every_small_subset_of_the_benchmark_graphs(self, workload):
        """Every 1-, 2- and 3-defect subset of every graph of a benchmark
        circuit at d=3."""
        protocol, noise, _ = _WORKLOADS[workload]
        c = build_distillation_circuit(build_protocol(protocol), 3, noise)
        dec = IterativeDecoder(c.detectors, enumerate_error_mechanisms(fault_table(c)))
        paired = 0
        for g in dec.graphs.values():
            for k in (1, 2, 3):
                for defects in itertools.combinations(range(g.n), k):
                    pairs = _assert_closed_form_is_the_dp(g, list(defects))
                    paired += k == 3 and pairs[0][1] != BOUNDARY
        assert paired > 1000

    @pytest.mark.parametrize("d", [5, 7])
    def test_sampled_triples_above_d3(self, d):
        """Seeded 3-defect subsets of every 7-to-1 graph at d=5 and d=7: half
        uniform, half a node and two of its useful partners, so that pairs
        form."""
        c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), d, NoiseModel(1e-3))
        dec = IterativeDecoder(c.detectors, enumerate_error_mechanisms(fault_table(c)))
        rng = np.random.default_rng(d)
        paired = 0
        for g in dec.graphs.values():
            for _ in range(200):
                defects = sorted(rng.choice(g.n, size=3, replace=False).tolist())
                _assert_closed_form_is_the_dp(g, defects)
            for _ in range(200):
                a = int(rng.integers(g.n))
                partners = list(_bits(g._useful[a]))
                if len(partners) < 2:
                    continue
                defects = sorted([a, *rng.choice(partners, size=2, replace=False).tolist()])
                pairs = _assert_closed_form_is_the_dp(g, defects)
                paired += pairs[0][1] != BOUNDARY
        assert paired > 1000

    def test_near_ties_keep_the_dp_margin(self):
        """Pairs that beat the boundary by 0, 5e-13 or 2e-12: only the last
        wins, since a choice must beat the earlier one by more than 1e-12."""
        margins = (0.0, 5e-13, 2e-12)
        g = MatchingGraph(2, [Edge(u=0, v=BOUNDARY, weight=1.0),
                              Edge(u=1, v=BOUNDARY, weight=1.0),
                              Edge(u=0, v=1, weight=2.0 - 5e-13)])
        assert g._match([0, 1]) == [(0, BOUNDARY), (1, BOUNDARY)]
        for eps in itertools.product(margins, repeat=3):
            edges = [Edge(u=i, v=BOUNDARY, weight=1.0) for i in range(3)]
            edges += [Edge(u=u, v=v, weight=2.0 - e)
                      for (u, v), e in zip(((0, 1), (0, 2), (1, 2)), eps)]
            g = MatchingGraph(3, edges)
            for k in (2, 3):
                for defects in itertools.combinations(range(3), k):
                    _assert_closed_form_is_the_dp(g, list(defects))

    def test_three_defects_cut_off_from_the_boundary(self):
        """Nodes 1-3 are joined to each other only: any two of them pair, so
        the third cannot reach the boundary, as in the DP."""
        g = MatchingGraph(4, [Edge(u=0, v=BOUNDARY, weight=1.0),
                              Edge(u=1, v=2, weight=0.5),
                              Edge(u=2, v=3, weight=0.5)])
        with pytest.raises(RuntimeError, match="cannot reach the boundary"):
            cluster_match(g, [1, 2, 3])
        with pytest.raises(RuntimeError,
                           match=r"^decode failure: defect cannot reach the boundary$"):
            g._match([1, 2, 3])
        assert g._match([0, 1, 2]) == cluster_match(g, [0, 1, 2]) == [(0, BOUNDARY), (1, 2)]


def _fib(i: int) -> int:
    a, b = 0, 1
    for _ in range(i):
        a, b = b, a + b
    return a


def _grown_cluster(rng: np.random.Generator, g: MatchingGraph, k: int) -> list[int]:
    """k nodes of `g`, each after the first a useful partner of an earlier
    one while any is left, so that pairs form as in a sampled cluster."""
    picked = [int(rng.integers(g.n))]
    while len(picked) < k:
        mask = 0
        for a in picked:
            mask |= g._useful[a]
        options = [b for b in _bits(mask) if b not in picked] or \
            [b for b in range(g.n) if b not in picked]
        picked.append(int(rng.choice(options)))
    return sorted(picked)


class TestSchedule:
    def test_states_are_the_subsets_the_recursion_memoises(self):
        """For every k, the schedule lists each subset `cluster_match`
        memoises from the full set once, F(k+2) - 1 of them, after every
        subset it references, with the references the recursion makes."""
        for k in range(1, _DP_LIMIT + 1):
            g = MatchingGraph(k, [Edge(u=i, v=BOUNDARY, weight=1.0) for i in range(k)])
            best, _ = cluster_dp(g, list(range(k)))
            states, masks = decoder._schedule(k)
            assert masks[0] == 0 and list(masks) == sorted(set(masks))
            assert set(masks) == set(best)
            assert len(states) == len(masks) - 1 == _fib(k + 2) - 1
            for x, (i, r, pairs) in enumerate(states, 1):
                s = masks[x]
                rest = s ^ 1 << i
                assert i == (s & -s).bit_length() - 1
                assert masks[r] == rest and r < x
                assert [j for j, _ in pairs] == list(_bits(rest))
                for j, p in pairs:
                    assert masks[p] == rest ^ 1 << j and p < x

    def test_only_matched_sizes_get_a_schedule(self, monkeypatch):
        """A cluster above `_DP_LIMIT` goes to blossom and builds no
        schedule; one of k defects builds the schedule for k alone."""
        monkeypatch.setattr(decoder, "_SCHEDULES", {})
        g = _random_graph(np.random.default_rng(3), _DP_LIMIT + 4)
        g._match(list(range(_DP_LIMIT + 1)))
        assert decoder._SCHEDULES == {}
        g._match(list(range(5)))
        assert list(decoder._SCHEDULES) == [5]

    def test_schedules_are_compact(self, monkeypatch):
        """All schedules up to `_DP_LIMIT` hold 0.91 MB under tracemalloc
        on CPython 3.11, against 1.19 MB when no two states share their
        pairs.  A full collection first empties the free lists, whose
        reused tuples tracemalloc would not see."""
        monkeypatch.setattr(decoder, "_SCHEDULES", {})
        gc.collect()
        tracemalloc.start()
        try:
            for k in range(1, _DP_LIMIT + 1):
                decoder._schedule(k)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.0e6, held

    def test_matching_leaves_no_cyclic_garbage(self):
        """With the schedules built, 2000 seeded `_match` calls of 1 to
        `_DP_LIMIT` defects leave nothing for the cyclic collector."""
        for k in range(1, _DP_LIMIT + 1):
            decoder._schedule(k)
        rng = np.random.default_rng(5)
        g = _random_graph(rng, 24)
        clusters = [sorted(rng.choice(g.n, size=int(rng.integers(1, _DP_LIMIT + 1)),
                                      replace=False).tolist()) for _ in range(2000)]
        gc.collect()
        gc.disable()
        try:
            for defects in clusters:
                g._match(defects)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


def _blossom_cluster_decode() -> tuple[list, str]:
    """The pairs and the correction weight (in hex) of one seeded cluster of
    16 defects of a 7-to-1 d=5 graph, grown through useful pairs, so that
    `decode` matches it as one cluster, by blossom."""
    c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 5, NoiseModel(1e-3))
    g = IterativeDecoder(c.detectors, enumerate_error_mechanisms(fault_table(c))).graphs[(0, "X")]
    defects = _grown_cluster(np.random.default_rng(21), g, 16)
    syndrome = sum(1 << a for a in defects)
    flips = g.decode(syndrome)
    assert g.component_misses == 1 and len(defects) > _DP_LIMIT
    corr = cluster_correction(g, syndrome)
    assert flips == corr.flips
    return g._match(defects), corr.weight.hex()


def test_blossom_pairs_do_not_follow_the_hash_seed():
    """Blossom returns its pairs as the DP does, each lower defect first,
    sorted by first defect, so the pairs and the weight summed in their
    order are the same in processes of different `PYTHONHASHSEED`."""
    pairs, weight = _blossom_cluster_decode()
    assert pairs == sorted(pairs) and all(a < b for a, b in pairs if b != BOUNDARY)
    src = str(Path(decoder.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    code = "import test_decoder; print(repr(test_decoder._blossom_cluster_decode()))"
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == repr((pairs, weight)), hash_seed


class TestScheduledMatch:
    @pytest.mark.parametrize("d", [5, 7])
    def test_seeded_clusters_above_d3(self, d):
        """Seeded clusters of every size from 4 to `_DP_LIMIT` on every
        7-to-1 graph: half uniform, half grown through useful pairs."""
        c = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), d, NoiseModel(1e-3))
        dec = IterativeDecoder(c.detectors, enumerate_error_mechanisms(fault_table(c)))
        rng = np.random.default_rng(100 + d)
        paired = 0
        for g in dec.graphs.values():
            for k in range(4, _DP_LIMIT + 1):
                for _ in range(3):
                    uniform = sorted(rng.choice(g.n, size=k, replace=False).tolist())
                    _assert_closed_form_is_the_dp(g, uniform)
                    pairs = _assert_closed_form_is_the_dp(g, _grown_cluster(rng, g, k))
                    paired += any(b != BOUNDARY for _, b in pairs)
        assert paired > 100

    def test_uniform_weights_full_of_ties(self):
        """Every edge weighs 1.0, and nodes 16-19 are joined to each other
        only: pairings tie everywhere, and a cluster with an odd number of
        nodes 16-19 cannot reach the boundary, in both matchers alike."""
        rng = np.random.default_rng(9)
        edges = [Edge(u=i, v=BOUNDARY, weight=1.0) for i in range(16)]
        edges += [Edge(u=u, v=u + 1, weight=1.0) for u in range(16, 19)]
        for _ in range(40):
            u, v = (int(x) for x in rng.choice(16, size=2, replace=False))
            edges.append(Edge(u=u, v=v, weight=1.0))
        g = MatchingGraph(20, edges)
        failed = 0
        for k in range(4, _DP_LIMIT + 1):
            for _ in range(12):
                defects = sorted(rng.choice(20, size=k, replace=False).tolist())
                failed += _assert_closed_form_is_the_dp(g, defects) is None
        assert 20 < failed < 100

    def test_a_pair_that_beats_the_boundary_by_exactly_the_margin_loses(self):
        """Each node weighs 1.0 to the boundary and 2.0 - 1e-12 to the next
        one.  At two defects the pair's sum is the boundary sum less 1e-12
        to the last bit, so only the strict comparison keeps the boundary;
        every run of consecutive nodes matches as in the per-cluster DP."""
        k = _DP_LIMIT
        edges = [Edge(u=i, v=BOUNDARY, weight=1.0) for i in range(k)]
        edges += [Edge(u=i, v=i + 1, weight=2.0 - 1e-12) for i in range(k - 1)]
        g = MatchingGraph(k, edges)
        assert g._match([0, 1]) == [(0, BOUNDARY), (1, BOUNDARY)]
        for size in range(2, k + 1):
            for start in range(k - size + 1):
                _assert_closed_form_is_the_dp(g, list(range(start, start + size)))


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_packed_shots_split_like_the_walk(workload, monkeypatch):
    """Over the two chunks of a run whose length is no multiple of 8, every
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
    fixed = DecodeResult(corrections={}, flips=0, iterations_used=1, converged=True)
    monkeypatch.setattr(dec, "decode_shot", lambda raw, max_iters: fixed)
    cfg = harness.ExperimentConfig(protocol=protocol, p_circuit=noise.p_circuit,
                                   p_in=p_in, shots=shots, seed=17)
    tallies = [harness.decode_chunk(pipeline, cfg, k) for k in (0, 1)]
    assert [[t.shots for t in chunk] for chunk in tallies] == [[CHUNK], [13]]
    batch = sample(pipeline.table, shots, cfg.seed, 0, p_in)
    det = planes(batch, pipeline.table)[0]
    slots = det_slots(pipeline.table)
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
    dec = IterativeDecoder(c.detectors, enumerate_error_mechanisms(fault_table(c)))
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
                edge_mask = ends = flips = 0
                weight = 0.0
                for i in g._path_edges(a, b):
                    e = g.edges[i]
                    edge_mask ^= 1 << i
                    ends ^= 1 << e.u ^ 1 << (n if e.v == BOUNDARY else e.v)
                    weight += e.weight
                    flips ^= e.flips
                assert g._path(a, b) == flips, (key, a, b)
                assert ends == 1 << a | 1 << b, (key, a, b)
                assert weight == pytest.approx(dist[a, b], abs=1e-9), (key, a, b)
                if exact:
                    want = sum(1 << i for i in dijkstra_path(pred, pair_edge, a, b))
                    assert edge_mask == want, (key, a, b)
    assert pairs > 100


class TestSlotOrder:
    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_builders_emit_detectors_in_slot_order(self, name):
        """Detector s is in slot s: the slot order the oracle derives from
        the circuit's detectors is the identity."""
        c = _BUILDERS[name]()
        assert slot_order(c) == list(range(len(c.detectors)))

    def test_unsorted_detectors_are_rejected(self):
        c = _BUILDERS["SevenToOne-d3"]()
        mechs = enumerate_error_mechanisms(fault_table(c))
        c.detectors[0], c.detectors[-1] = c.detectors[-1], c.detectors[0]
        with pytest.raises(ValueError, match="detectors are not in slot order"):
            IterativeDecoder(c.detectors, mechs)


class TestIncrementalLoop:
    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_matches_reference_loop(self, sampled, max_iters):
        """Re-decoding only the graphs whose syndrome changed gives the same
        result as re-decoding every graph on every iteration."""
        c, dec, shots = sampled
        for i, raw in enumerate(shots[:1000]):
            got = dec.decode_shot(raw, max_iters)
            want = reference_decode_shot(c, dec, raw, max_iters)
            assert (got.flips, got.iterations_used, got.converged) == \
                (want.flips, want.iterations_used, want.converged), i
            assert {k: got.corrections.get(k, 0) for k in dec.graphs} == \
                want.corrections, i


class TestCaches:
    def test_caps_hold_and_tiny_caps_change_nothing(self, sampled, monkeypatch):
        """Two passes over the recorded decodes, on one fresh graph per cap,
        with `CACHE_CAP` set to that cap."""
        _, dec, shots = sampled
        decodes = sorted(_recorded_decodes(dec, shots[:500]))
        default_cap = decoder.CACHE_CAP
        for key, g in dec.graphs.items():
            assert len(g._cache) <= default_cap
            syndromes = [s for k, s in decodes if k == key]
            want = [cluster_correction(g, s).flips for s in syndromes]
            passes, misses = {}, {}
            for cap in (3, 10**9):
                monkeypatch.setattr(decoder, "CACHE_CAP", cap)
                h = passes[cap] = _fresh(g)
                misses[cap] = []
                for _ in range(2):
                    assert [h.decode(s) for s in syndromes] == want
                    misses[cap].append(h.component_misses)
                assert h.syndrome_hits + h.syndrome_misses == 2 * len(syndromes)
            assert len(passes[3]._cache) <= 3
            # Uncapped, the second pass finds every component in the cache.
            assert misses[10**9][0] == misses[10**9][1] == len(passes[10**9]._cache)

    def test_zero_syndrome_reads_shared_empty_correction(self, pipeline):
        """A zero syndrome costs no decode call and no cache entry; its
        correction is 0."""
        c, dec = pipeline
        zero = _split(dec, np.zeros(len(c.detectors), bool))
        assert _recorded_decodes(dec, [zero]) == set()
        g = next(iter(dec.graphs.values()))
        before = (g.syndrome_hits, g.syndrome_misses, len(g._cache))
        assert g.decode(0) == 0
        assert (g.syndrome_hits, g.syndrome_misses, len(g._cache)) == before
