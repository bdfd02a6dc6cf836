"""Per-patch minimum-weight matching and the iterative cross-patch loop.

Each (patch, measurement-basis) pair gets its own matching graph built from
the mechanisms originating on that patch; detector flips a mechanism causes on
*other* patches ride along as foreign signatures.  A global decode sweeps all
graphs, XORs the foreign signatures of the chosen corrections into the other
patches' effective syndromes, and repeats to a fixpoint (or the iteration
cap).  Matching itself is exact: pairwise distances from Dijkstra, optimal
pairing by subset dynamic programming (blossom fallback for large defect
sets), ties broken by edge id so decoding is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .circuit import Circuit
from .dem import ErrorMechanism

BOUNDARY = -1
_DP_LIMIT = 14  # defects above this use the blossom fallback


@dataclass(frozen=True)
class Edge:
    eid: int
    u: int                      # local node index
    v: int                      # local node index or BOUNDARY
    weight: float
    prob: float = 0.0
    obs_mask: int = 0
    check_mask: int = 0
    foreign_dets: tuple[int, ...] = ()


@dataclass
class Correction:
    edges: tuple[int, ...]
    weight: float
    obs_mask: int
    check_mask: int
    foreign_dets: tuple[int, ...]   # global detector ids, XOR-reduced


class MatchingGraph:
    """Matching graph over one home patch's detectors of one basis."""

    def __init__(self, num_nodes: int, edges: list[Edge],
                 det_ids: tuple[int, ...] = (), key: tuple[int, str] | None = None):
        self.n = num_nodes
        self.edges = list(edges)
        self.det_ids = det_ids or tuple(range(num_nodes))
        self.key = key
        self._cache: dict[int, Correction] = {}
        self._prepare()

    @classmethod
    def from_mechanisms(cls, patch: int, basis: str, det_ids: tuple[int, ...],
                        mechanisms: list[ErrorMechanism]) -> "MatchingGraph":
        local = {d: i for i, d in enumerate(det_ids)}
        edges = []
        for m in mechanisms:
            if m.origin_patch != patch or m.basis != basis or not m.home_dets:
                continue
            if len(m.home_dets) > 2:
                raise ValueError(
                    f"mechanism with {len(m.home_dets)} home detectors is unmatchable")
            u = local[m.home_dets[0]]
            v = local[m.home_dets[1]] if len(m.home_dets) == 2 else BOUNDARY
            w = -math.log(m.prob / (1 - m.prob)) if 0 < m.prob < 0.5 else 0.0
            edges.append(Edge(eid=len(edges), u=u, v=v, weight=max(w, 0.0),
                              prob=m.prob, obs_mask=m.obs_mask,
                              check_mask=m.check_mask, foreign_dets=m.foreign_dets))
        return cls(len(det_ids), edges, det_ids=det_ids, key=(patch, basis))

    def _prepare(self) -> None:
        # Node n acts as the boundary in the distance computation.
        n = self.n
        best: dict[tuple[int, int], Edge] = {}
        for e in self.edges:
            v = n if e.v == BOUNDARY else e.v
            k = (min(e.u, v), max(e.u, v))
            cur = best.get(k)
            if cur is None or (e.weight, e.eid) < (cur.weight, cur.eid):
                best[k] = e
        self._pair_edge = best
        if best:
            rows = [k[0] for k in best]
            cols = [k[1] for k in best]
            w = [best[k].weight for k in best]
            adj = coo_matrix((w + w, (rows + cols, cols + rows)), shape=(n + 1, n + 1))
            self._dist, self._pred = dijkstra(adj.tocsr(), directed=False,
                                              return_predecessors=True)
        else:
            self._dist = np.full((n + 1, n + 1), np.inf)
            np.fill_diagonal(self._dist, 0.0)
            self._pred = np.full((n + 1, n + 1), -9999, dtype=np.int32)

    def _path_edges(self, a: int, b: int) -> tuple[int, ...]:
        out = []
        cur = b
        while cur != a:
            prev = int(self._pred[a, cur])
            if prev < 0:
                raise RuntimeError("defect unreachable: disconnected matching graph")
            k = (min(prev, cur), max(prev, cur))
            out.append(self._pair_edge[k].eid)
            cur = prev
        return tuple(out)

    def decode(self, syndrome: int) -> Correction:
        """Minimum-weight correction for a home-detector syndrome bitmask."""
        hit = self._cache.get(syndrome)
        if hit is not None:
            return hit
        defects = [i for i in range(self.n) if (syndrome >> i) & 1]
        pairs = self._match(defects)
        edge_set = 0
        total = 0.0
        for a, b in pairs:
            bb = self.n if b == BOUNDARY else b
            total += float(self._dist[a, bb])
            for eid in self._path_edges(a, bb):
                edge_set ^= 1 << eid
        eids = tuple(i for i in range(len(self.edges)) if (edge_set >> i) & 1)
        obs = chk = 0
        foreign: set[int] = set()
        for i in eids:
            e = self.edges[i]
            obs ^= e.obs_mask
            chk ^= e.check_mask
            foreign ^= set(e.foreign_dets)
        corr = Correction(edges=eids, weight=total, obs_mask=obs,
                          check_mask=chk, foreign_dets=tuple(sorted(foreign)))
        self._cache[syndrome] = corr
        return corr

    def _match(self, defects: list[int]) -> list[tuple[int, int]]:
        k = len(defects)
        if k == 0:
            return []
        if k > _DP_LIMIT:
            return self._match_blossom(defects)
        d = self._dist
        n = self.n
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

    def _match_blossom(self, defects: list[int]) -> list[tuple[int, int]]:
        import networkx as nx
        g = nx.Graph()
        n = self.n
        for ai, a in enumerate(defects):
            g.add_edge(("d", ai), ("b", ai), weight=-float(self._dist[a, n]))
            for bi in range(ai + 1, len(defects)):
                b = defects[bi]
                g.add_edge(("d", ai), ("d", bi), weight=-float(self._dist[a, b]))
                g.add_edge(("b", ai), ("b", bi), weight=0.0)
        mate = nx.algorithms.matching.max_weight_matching(g, maxcardinality=True)
        pairs = []
        for u, v in mate:
            if u[0] == "b" and v[0] == "b":
                continue
            if u[0] == "b" or v[0] == "b":
                di = u if u[0] == "d" else v
                pairs.append((defects[di[1]], BOUNDARY))
            else:
                pairs.append((defects[u[1]], defects[v[1]]))
        return pairs


def brute_force_decode(graph: MatchingGraph, syndrome: int) -> float:
    """Exhaustive minimum pairing weight; test oracle for MatchingGraph.decode."""
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


@dataclass(frozen=True)
class IterativeConfig:
    max_global_iters: int = 3

    def __post_init__(self):
        if self.max_global_iters < 1:
            raise ValueError("max_global_iters must be >= 1")


@dataclass
class DecodeResult:
    corrections: dict[tuple[int, str], Correction]
    obs_mask: int
    check_mask: int
    iterations_used: int
    converged: bool


class IterativeDecoder:
    """All per-patch graphs plus the cross-patch syndrome-toggle loop."""

    def __init__(self, circuit: Circuit, mechanisms: list[ErrorMechanism]):
        self.circuit = circuit
        by_key: dict[tuple[int, str], list[int]] = {}
        for di, det in enumerate(circuit.detectors):
            by_key.setdefault((det.home_patch, det.basis), []).append(di)
        self.det_local: dict[int, tuple[tuple[int, str], int]] = {}
        self.graphs: dict[tuple[int, str], MatchingGraph] = {}
        for key, dets in sorted(by_key.items()):
            det_ids = tuple(dets)
            for li, d in enumerate(det_ids):
                self.det_local[d] = (key, li)
            self.graphs[key] = MatchingGraph.from_mechanisms(
                key[0], key[1], det_ids, mechanisms)

    def syndrome_masks(self, det_bits: np.ndarray) -> dict[tuple[int, str], int]:
        """Split a full detector bit vector into per-graph bitmasks."""
        out = dict.fromkeys(self.graphs, 0)
        for d in np.flatnonzero(det_bits).tolist():
            key, li = self.det_local[d]
            out[key] |= 1 << li
        return out

    def _foreign_toggles(self, corrections) -> dict[tuple[int, str], int]:
        toggles = {key: 0 for key in self.graphs}
        for corr in corrections.values():
            for d in corr.foreign_dets:
                key, li = self.det_local[d]
                toggles[key] ^= 1 << li
        return toggles

    def decode_shot(self, raw: dict[tuple[int, str], int],
                    config: IterativeConfig = IterativeConfig()) -> DecodeResult:
        toggles = {key: 0 for key in self.graphs}
        corrections: dict[tuple[int, str], Correction] = {}
        converged = False
        iters = 0
        for iters in range(1, config.max_global_iters + 1):
            for key, g in self.graphs.items():
                corrections[key] = g.decode(raw.get(key, 0) ^ toggles[key])
            new_toggles = self._foreign_toggles(corrections)
            if new_toggles == toggles:
                converged = True
                break
            toggles = new_toggles
        obs = chk = 0
        for corr in corrections.values():
            obs ^= corr.obs_mask
            chk ^= corr.check_mask
        return DecodeResult(corrections=corrections, obs_mask=obs,
                            check_mask=chk, iterations_used=iters,
                            converged=converged)


def predict_outcome(result: DecodeResult, check_bits: int, obs_bits: int
                    ) -> tuple[bool, bool, bool]:
    """(accepted, frame_offset, output_error) for a distillation shot.

    `check_bits` / `obs_bits` are the shot's reference-relative raw parities
    packed as integers (observable id 0 = output, id 1 = frame rule)."""
    corrected_checks = check_bits ^ result.check_mask
    corrected_obs = obs_bits ^ result.obs_mask
    return (corrected_checks == 0,
            bool(corrected_obs >> 1 & 1),
            bool(corrected_obs & 1))
