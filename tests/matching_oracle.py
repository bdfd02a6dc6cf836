"""Whole-syndrome matching oracles for `msdsim.decoder`.

- `brute_force_decode`: the minimum pairing weight by exhaustive search.
- `whole_syndrome_decode`: the decoder before syndromes were split into
  clusters.  One subset DP runs over all of a syndrome's defects (blossom above
  `_DP_LIMIT`), and the correction is read by scanning every edge of the graph.
- `reference_decode_shot`: the cross-patch loop that re-decodes every graph
  on every iteration and resolves foreign detectors on every shot.
"""
from __future__ import annotations

import math

from msdsim.decoder import (_DP_LIMIT, BOUNDARY, Correction, DecodeResult,
                            IterativeConfig, IterativeDecoder, MatchingGraph)


def brute_force_decode(graph: MatchingGraph, syndrome: int) -> float:
    """Exhaustive minimum pairing weight of a syndrome bitmask."""
    defects = [i for i in range(graph.n) if (syndrome >> i) & 1]
    d = graph._dist
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
    obs = chk = foreign = 0
    for i, e in enumerate(graph.edges):
        if edge_set >> i & 1:
            obs ^= e.obs_mask
            chk ^= e.check_mask
            for d in e.foreign_dets:
                foreign ^= 1 << d
    return Correction(edge_set, total, obs, chk, foreign)


def reference_decode_shot(decoder: IterativeDecoder,
                          raw: dict[tuple[int, str], int],
                          config: IterativeConfig = IterativeConfig()
                          ) -> DecodeResult:
    """The cross-patch loop, re-decoding every graph on every iteration."""
    toggles = {key: 0 for key in decoder.graphs}
    corrections: dict[tuple[int, str], Correction] = {}
    converged = False
    iters = 0
    for iters in range(1, config.max_global_iters + 1):
        for key, g in decoder.graphs.items():
            corrections[key] = g.decode(raw.get(key, 0) ^ toggles[key])
        new_toggles = {key: 0 for key in decoder.graphs}
        for corr in corrections.values():
            for d in corr.foreign_dets:
                key, bit = decoder.det_slot[d]
                new_toggles[key] ^= bit
        if new_toggles == toggles:
            converged = True
            break
        toggles = new_toggles
    obs = chk = 0
    for corr in corrections.values():
        obs ^= corr.obs_mask
        chk ^= corr.check_mask
    return DecodeResult(corrections=corrections, obs_mask=obs, check_mask=chk,
                        iterations_used=iters, converged=converged)
