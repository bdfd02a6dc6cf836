"""Whole-syndrome matching oracles for `msdsim.decoder`.

- `dijkstra_tables`: the distance and predecessor tables `MatchingGraph`
  built with one scipy Dijkstra per graph before Floyd–Warshall replaced it;
  `dijkstra_path` reads a path from them and `useful_rows` the useful pairs.
- `brute_force_decode`: the minimum pairing weight by exhaustive search over
  the Dijkstra distances.
- `Correction`: a correction's edge set and weight beside its flips, the one
  int `MatchingGraph.decode` returns.
- `cluster_correction`: the `Correction` that `decode` returns the flips of,
  rebuilt from the useful-pair split and `MatchingGraph._match`'s pairs.
- `whole_syndrome_decode`: the decoder before syndromes were split into
  clusters.  One subset DP runs over all of a syndrome's defects (blossom above
  `_DP_LIMIT`), and the correction is read by scanning every edge of the graph.
- `cluster_match`: `MatchingGraph._match`'s subset DP written apart, by
  recursion over distance lists built per call, where `_match` walks a
  precomputed schedule over the graph's distance table; `cluster_dp` returns
  its memo, so its subsets are the ones the schedule must list.
- `det_slots` / `slot_order`: each detector's graph and node, and the
  detector in each slot, derived from the circuit's detectors rather than
  the decoder's tables.
- `walk_syndrome_masks`: the per-shot split of a full detector bit vector
  that the slot-order packing replaced, through a `det_slots` table.
- `reference_decode_shot`: the cross-patch loop that re-decodes every graph
  on every iteration and resolves foreign flips through `det_slots`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from msdsim.decoder import _DP_LIMIT, BOUNDARY, DecodeResult, IterativeDecoder, MatchingGraph
from msdsim.dem import _bits


@dataclass(frozen=True)
class Correction:
    edge_mask: int              # bit i set: edge i is in the correction
    weight: float
    flips: int                  # XOR of its edges' `flips`

    @property
    def edges(self) -> tuple[int, ...]:
        return _bits(self.edge_mask)


def _edge_flips(graph: MatchingGraph, edge_mask: int) -> int:
    flips = 0
    for i in _bits(edge_mask):
        flips ^= graph.edges[i].flips
    return flips


def dijkstra_tables(graph: MatchingGraph
                    ) -> tuple[np.ndarray, np.ndarray, dict[tuple[int, int], int]]:
    """(dist, pred, pair_edge) of `graph` by scipy's Dijkstra; node n is the
    boundary, and pair_edge holds the first of each node pair's lightest
    edges."""
    n = graph.n
    edges = graph.edges
    best: dict[tuple[int, int], int] = {}
    for i, e in enumerate(edges):
        v = n if e.v == BOUNDARY else e.v
        k = (min(e.u, v), max(e.u, v))
        cur = best.get(k)
        if cur is None or e.weight < edges[cur].weight:
            best[k] = i
    if best:
        rows = [k[0] for k in best]
        cols = [k[1] for k in best]
        w = [edges[i].weight for i in best.values()]
        adj = coo_matrix((w + w, (rows + cols, cols + rows)), shape=(n + 1, n + 1))
        dist, pred = dijkstra(adj.tocsr(), directed=False,
                              return_predecessors=True)
    else:
        dist = np.full((n + 1, n + 1), np.inf)
        np.fill_diagonal(dist, 0.0)
        pred = np.full((n + 1, n + 1), -9999, dtype=np.int32)
    return dist, pred, best


def dijkstra_path(pred: np.ndarray, pair_edge: dict[tuple[int, int], int],
                  a: int, b: int) -> tuple[int, ...]:
    """The edge ids of the path from a to b in `pred`, b's end first."""
    out = []
    cur = b
    while cur != a:
        prev = int(pred[a, cur])
        if prev < 0:
            raise RuntimeError("defect unreachable: disconnected matching graph")
        k = (min(prev, cur), max(prev, cur))
        out.append(pair_edge[k])
        cur = prev
    return tuple(out)


def useful_rows(dist: np.ndarray, n: int) -> list[int]:
    """Per node a, the bitmask of the nodes b with dist(a, b) < dist(a, B) +
    dist(b, B), B the boundary."""
    to_b = dist[:n, n]
    useful = dist[:n, :n] < to_b[:, None] + to_b[None, :] - 1e-12
    np.fill_diagonal(useful, False)
    packed = np.packbits(useful, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def brute_force_decode(graph: MatchingGraph, syndrome: int) -> float:
    """Exhaustive minimum pairing weight of a syndrome bitmask, over the
    Dijkstra distances rather than the graph's own table."""
    defects = [i for i in range(graph.n) if (syndrome >> i) & 1]
    d = dijkstra_tables(graph)[0]
    n = graph.n

    def rec(rem: tuple[int, ...]) -> float:
        if not rem:
            return 0.0
        i, rest = rem[0], rem[1:]
        best = float(d[i, n]) + rec(rest)
        for jx, j in enumerate(rest):
            best = min(best, float(d[i, j]) + rec(rest[:jx] + rest[jx + 1:]))
        return best

    return rec(tuple(defects))


def cluster_correction(graph: MatchingGraph, syndrome: int) -> Correction:
    """The correction `graph.decode(syndrome)` stands for: the syndrome split
    into the components of the useful relation (`useful_rows`), lowest
    defect first, each paired by `graph._match`.  The edge set is the XOR of
    the pairs' paths, and the weight their distances summed in pair order,
    component by component, as the decoder once summed them."""
    useful = useful_rows(graph._dist, graph.n)
    edge_set = 0
    total = 0.0
    rest = syndrome
    while rest:
        comp = grow = rest & -rest
        rest ^= comp
        while grow:
            low = grow & -grow
            grow ^= low
            new = useful[low.bit_length() - 1] & rest
            rest ^= new
            comp |= new
            grow |= new
        weight = 0.0
        for a, b in graph._match(list(_bits(comp))):
            bb = graph.n if b == BOUNDARY else b
            weight += float(graph._dist[a, bb])
            for eid in graph._path_edges(a, bb):
                edge_set ^= 1 << eid
        total += weight
    return Correction(edge_set, total, _edge_flips(graph, edge_set))


def whole_syndrome_match(graph: MatchingGraph, defects: list[int]
                         ) -> list[tuple[int, int]]:
    """Optimal pairing of all `defects` at once; equal weights go to the
    lexicographically smallest pair list."""
    k = len(defects)
    if k == 0:
        return []
    if k > _DP_LIMIT:
        return graph._match_blossom(defects)
    d = graph._dist
    n = graph.n
    memo: dict[int, tuple[float, tuple]] = {0: (0.0, ())}

    def solve(mask: int) -> tuple[float, tuple]:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        bw, bp = solve(rest)
        best = (bw + float(d[defects[i], n]), ((defects[i], BOUNDARY),) + bp)
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            w, p = solve(rest & ~(1 << j))
            cand = (w + float(d[defects[i], defects[j]]),
                    ((defects[i], defects[j]),) + p)
            if cand[0] < best[0] - 1e-12 or (
                    abs(cand[0] - best[0]) <= 1e-12 and cand[1] < best[1]):
                best = cand
        memo[mask] = best
        return best

    w, pairs = solve((1 << k) - 1)
    if not math.isfinite(w):
        raise RuntimeError("decode failure: defect cannot reach the boundary")
    return list(pairs)


def whole_syndrome_decode(graph: MatchingGraph, syndrome: int) -> Correction:
    """Minimum-weight correction without the cluster split or any cache."""
    defects = [i for i in range(graph.n) if (syndrome >> i) & 1]
    edge_set = 0
    total = 0.0
    for a, b in whole_syndrome_match(graph, defects):
        bb = graph.n if b == BOUNDARY else b
        total += float(graph._dist[a, bb])
        for eid in graph._path_edges(a, bb):
            edge_set ^= 1 << eid
    return Correction(edge_set, total, _edge_flips(graph, edge_set))


def cluster_dp(graph: MatchingGraph, defects: list[int]
               ) -> tuple[dict[int, float], dict[int, int]]:
    """`cluster_match`'s memo, (best, choice): per subset of positions in
    `defects` that the recursion reaches from the full set, as a bitmask,
    its optimal weight and its lowest defect's partner (a position, or
    BOUNDARY); `best` also holds the empty set."""
    dist = graph._dist
    n = graph.n
    to_b = [dist.item(a, n) for a in defects]
    d = [[dist.item(a, b) for b in defects] for a in defects]
    best = {0: 0.0}
    choice: dict[int, int] = {}

    def solve(mask: int) -> float:
        w = best.get(mask)
        if w is not None:
            return w
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        w = solve(rest) + to_b[i]
        c = BOUNDARY
        row = d[i]
        m = rest
        while m:
            bit = m & -m
            m ^= bit
            j = bit.bit_length() - 1
            cand = solve(rest ^ bit) + row[j]
            if cand < w - 1e-12:
                w = cand
                c = j
        best[mask] = w
        choice[mask] = c
        return w

    solve((1 << len(defects)) - 1)
    return best, choice


def cluster_match(graph: MatchingGraph, defects: list[int]) -> list[tuple[int, int]]:
    """Optimal pairing of `defects` (ascending local ids) with each other
    and the boundary, as pairs sorted by their first elements.

    Subset DP: the lowest defect of a set goes to the boundary or to the
    first partner that beats every earlier choice by more than 1e-12, so
    ties go to the lexicographically smallest pair list.  It forms
    `_match`'s sums in `_match`'s order, but by recursion with memo dicts,
    keyed by position in `defects`, over distance lists built for this
    call, so it shares neither `_match`'s schedule nor its distance
    reads."""
    k = len(defects)
    if k > _DP_LIMIT:
        return graph._match_blossom(defects)
    best, choice = cluster_dp(graph, defects)
    full = (1 << k) - 1
    if not math.isfinite(best[full]):
        raise RuntimeError("decode failure: defect cannot reach the boundary")
    pairs = []
    mask = full
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        c = choice[mask]
        if c == BOUNDARY:
            pairs.append((defects[i], BOUNDARY))
            mask ^= low
        else:
            pairs.append((defects[i], defects[c]))
            mask ^= low | 1 << c
    return pairs


def _groups(circuit) -> dict[tuple[int, str], list[int]]:
    """The detector ids of `circuit` (or of its fault table) grouped by
    (home patch, basis), keys sorted and ids ascending: one group per graph,
    in slot order."""
    groups: dict[tuple[int, str], list[int]] = {}
    for d, det in enumerate(circuit.detectors):
        groups.setdefault((det.home_patch, det.basis), []).append(d)
    return dict(sorted(groups.items()))


def det_slots(circuit) -> list[tuple[tuple[int, str], int]]:
    """Per global detector: its graph's key and its bit in that graph's
    syndrome, derived from the circuit's detectors."""
    slots = [None] * len(circuit.detectors)
    for key, dets in _groups(circuit).items():
        for li, d in enumerate(dets):
            slots[d] = (key, 1 << li)
    return slots


def slot_order(circuit) -> list[int]:
    """The global detector in each slot: the graphs' groups laid end to
    end."""
    return [d for dets in _groups(circuit).values() for d in dets]


def walk_syndrome_masks(slots: list[tuple[tuple[int, str], int]],
                        det_bits: np.ndarray) -> dict[tuple[int, str], int]:
    """Split a full detector bit vector into per-graph bitmasks through a
    `det_slots` table; graphs without a defect are left out."""
    out: dict[tuple[int, str], int] = {}
    for d in np.flatnonzero(det_bits).tolist():
        key, bit = slots[d]
        out[key] = out.get(key, 0) | bit
    return out


def reference_decode_shot(circuit, decoder: IterativeDecoder,
                          raw: dict[tuple[int, str], int],
                          max_iters: int = 3) -> DecodeResult:
    """The cross-patch loop of `circuit`'s decoder, re-decoding every graph
    on every iteration.  A correction's flips are read in signature layout,
    its detectors in slot order below the circuit's observables and
    checks."""
    slots = det_slots(circuit)
    by_slot = [slots[d] for d in slot_order(circuit)]
    nd = len(circuit.detectors)
    toggles = {key: 0 for key in decoder.graphs}
    corrections: dict[tuple[int, str], int] = {}
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        for key, g in decoder.graphs.items():
            corrections[key] = g.decode(raw.get(key, 0) ^ toggles[key])
        new_toggles = {key: 0 for key in decoder.graphs}
        for corr in corrections.values():
            for s in _bits(corr & ((1 << nd) - 1)):
                key, bit = by_slot[s]
                new_toggles[key] ^= bit
        if new_toggles == toggles:
            converged = True
            break
        toggles = new_toggles
    flips = 0
    for corr in corrections.values():
        flips ^= corr
    return DecodeResult(corrections=corrections, flips=flips,
                        iterations_used=iters, converged=converged)
