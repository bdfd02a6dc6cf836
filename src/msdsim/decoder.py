"""Per-patch minimum-weight matching and the iterative cross-patch loop.

Each (patch, measurement-basis) pair gets its own matching graph built from
the mechanisms originating on that patch; detector flips a mechanism causes on
*other* patches ride along as foreign signatures.  A global decode sweeps all
graphs, XORs the foreign signatures of the chosen corrections into the other
patches' effective syndromes, and repeats to a fixpoint (or the iteration
cap).

Matching is exact, and its cost follows the defects rather than the graph.
Pairwise distances come from one Dijkstra per graph at set-up.  A defect pair
(a, b) is *useful* when `dist(a, b) < dist(a, B) + dist(b, B)`, B the
boundary; otherwise sending both to the boundary costs no more, so some
optimal pairing uses only useful pairs.  `decode` therefore splits a syndrome
into the connected components of the useful relation and matches each one on
its own: subset dynamic programming, or the blossom fallback for a component
with more than `_DP_LIMIT` defects.  Each component's correction (weight,
path-edge bitmask and the masks those edges flip) is cached in a bounded
per-graph cache, and a syndrome's correction is the XOR of its components'.
Ties between equal-weight pairings go to the lexicographically smallest pair
list (defects in ascending order, the boundary before any partner), so
decoding is deterministic; the lowest edge id wins between parallel edges.

The cross-patch loop is incremental: after the first sweep it re-decodes only
the graphs whose effective syndrome changed, and a graph whose syndrome is
zero gets the shared empty correction without a call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .circuit import Circuit
from .dem import ErrorMechanism, _bits

BOUNDARY = -1
_DP_LIMIT = 14  # components with more defects use the blossom fallback
CACHE_CAP = 2048  # component corrections kept per graph


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


@dataclass(slots=True)
class Correction:
    edge_mask: int              # bit i set: edge i is in the correction
    weight: float
    obs_mask: int
    check_mask: int
    foreign_mask: int           # bit d set: global detector d toggles
    # Per-graph `(key, local mask)` form of `foreign_mask`, resolved once by
    # the IterativeDecoder that owns the graph.
    toggles: tuple[tuple[tuple[int, str], int], ...] | None = None

    @property
    def edges(self) -> tuple[int, ...]:
        return _bits(self.edge_mask)

    @property
    def foreign_dets(self) -> tuple[int, ...]:
        return _bits(self.foreign_mask)


EMPTY = Correction(0, 0.0, 0, 0, 0, ())


def _xor(parts: list[Correction]) -> Correction:
    """The correction that applies all of `parts`: weights add, masks XOR."""
    weight = 0.0
    edges = obs = chk = foreign = 0
    for p in parts:
        weight += p.weight
        edges ^= p.edge_mask
        obs ^= p.obs_mask
        chk ^= p.check_mask
        foreign ^= p.foreign_mask
    return Correction(edges, weight, obs, chk, foreign, None if foreign else ())


class MatchingGraph:
    """Matching graph over one home patch's detectors of one basis.

    One cache, keyed by defect bitmask, holds the corrections of components;
    a syndrome that is one component is its own key, and one with several is
    rebuilt from theirs.  The cache keeps its first `cache_cap` entries.
    `syndrome_hits`/`syndrome_misses` count the lookups of whole syndromes in
    `decode`, `component_hits`/`component_misses` those of components after a
    syndrome miss."""

    def __init__(self, num_nodes: int, edges: list[Edge],
                 det_ids: tuple[int, ...] = (), key: tuple[int, str] | None = None):
        self.n = num_nodes
        self.edges = list(edges)
        self.det_ids = det_ids or tuple(range(num_nodes))
        self.key = key
        self.cache_cap = CACHE_CAP
        self._cache: dict[int, Correction] = {}
        self._paths: dict[tuple[int, int], Correction] = {}
        self.syndrome_hits = self.syndrome_misses = 0
        self.component_hits = self.component_misses = 0
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
        # _useful[a]: bitmask of the nodes b that a useful pair (a, b) joins.
        to_b = self._dist[:n, n]
        useful = self._dist[:n, :n] < to_b[:, None] + to_b[None, :] - 1e-12
        np.fill_diagonal(useful, False)
        packed = np.packbits(useful, axis=1, bitorder="little")
        self._useful = [int.from_bytes(row.tobytes(), "little") for row in packed]

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

    def _path(self, a: int, b: int) -> Correction:
        """The shortest path from a to b (b = n: the boundary) as a
        correction."""
        part = self._paths.get((a, b))
        if part is None:
            edges = obs = chk = foreign = 0
            for i in self._path_edges(a, b):
                e = self.edges[i]
                edges ^= 1 << i
                obs ^= e.obs_mask
                chk ^= e.check_mask
                for d in e.foreign_dets:
                    foreign ^= 1 << d
            part = Correction(edges, float(self._dist[a, b]), obs, chk, foreign)
            self._paths[(a, b)] = part
        return part

    def decode(self, syndrome: int) -> Correction:
        """Minimum-weight correction for a home-detector syndrome bitmask."""
        if not syndrome:
            return EMPTY
        cache = self._cache
        hit = cache.get(syndrome)
        if hit is not None:
            self.syndrome_hits += 1
            return hit
        self.syndrome_misses += 1
        useful = self._useful
        parts = []
        rest = syndrome
        while rest:
            # Grow the component of the lowest remaining defect.
            comp = grow = rest & -rest
            rest ^= comp
            while grow:
                low = grow & -grow
                grow ^= low
                new = useful[low.bit_length() - 1] & rest
                if new:
                    rest ^= new
                    comp |= new
                    grow |= new
            part = cache.get(comp)
            if part is None:
                self.component_misses += 1
                part = self._solve_component(comp)
                if len(cache) < self.cache_cap:
                    cache[comp] = part
            else:
                self.component_hits += 1
            parts.append(part)
        return parts[0] if len(parts) == 1 else _xor(parts)

    def _solve_component(self, comp: int) -> Correction:
        """One component's optimal correction: the XOR of its paths."""
        n = self.n
        return _xor([self._path(a, n if b == BOUNDARY else b)
                     for a, b in self._match(list(_bits(comp)))])

    def _match(self, defects: list[int]) -> list[tuple[int, int]]:
        """Optimal pairing of `defects` (ascending local ids) with each other
        and the boundary, as pairs sorted by their first elements.

        Subset DP: the lowest defect of a set goes to the boundary or to the
        first partner that beats every earlier choice by more than 1e-12, so
        ties go to the lexicographically smallest pair list."""
        k = len(defects)
        if k > _DP_LIMIT:
            return self._match_blossom(defects)
        dist = self._dist
        n = self.n
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

        full = (1 << k) - 1
        if not math.isfinite(solve(full)):
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
        # Per global detector: its graph and its bit in that graph's syndrome.
        self.det_slot = [None] * len(circuit.detectors)
        self.graphs: dict[tuple[int, str], MatchingGraph] = {}
        for key, dets in sorted(by_key.items()):
            det_ids = tuple(dets)
            for li, d in enumerate(det_ids):
                self.det_slot[d] = (key, 1 << li)
            self.graphs[key] = MatchingGraph.from_mechanisms(
                key[0], key[1], det_ids, mechanisms)

    def syndrome_masks(self, det_bits: np.ndarray) -> dict[tuple[int, str], int]:
        """Split a full detector bit vector into per-graph bitmasks; graphs
        without a defect are left out."""
        out: dict[tuple[int, str], int] = {}
        slots = self.det_slot
        for d in np.flatnonzero(det_bits).tolist():
            key, bit = slots[d]
            out[key] = out.get(key, 0) | bit
        return out

    def _foreign_toggles(self, corr: Correction):
        """`corr.toggles`, resolved from its foreign detectors on first use."""
        toggles: dict[tuple[int, str], int] = {}
        for d in _bits(corr.foreign_mask):
            key, bit = self.det_slot[d]
            toggles[key] = toggles.get(key, 0) ^ bit
        corr.toggles = tuple(toggles.items())
        return corr.toggles

    def decode_shot(self, raw: dict[tuple[int, str], int],
                    config: IterativeConfig = IterativeConfig()) -> DecodeResult:
        """Decode one shot's per-graph syndromes, iterating the foreign
        toggles to a fixpoint or to `config.max_global_iters` sweeps."""
        graphs = self.graphs
        corrections = dict.fromkeys(graphs, EMPTY)
        # `applied`: the toggles this iteration's syndromes carry; `toggles`:
        # the foreign toggles of the current corrections.
        applied = dict.fromkeys(graphs, 0)
        toggles = applied.copy()
        todo = [key for key, s in raw.items() if s]
        obs = chk = 0
        converged = False
        iters = 0
        for iters in range(1, config.max_global_iters + 1):
            for key in todo:
                s = raw.get(key, 0) ^ applied[key]
                new = graphs[key].decode(s) if s else EMPTY
                old = corrections[key]
                corrections[key] = new
                obs ^= old.obs_mask ^ new.obs_mask
                chk ^= old.check_mask ^ new.check_mask
                for k, m in old.toggles:
                    toggles[k] ^= m
                t = new.toggles
                for k, m in (self._foreign_toggles(new) if t is None else t):
                    toggles[k] ^= m
            if toggles == applied:
                converged = True
                break
            todo = [key for key, m in toggles.items() if m != applied[key]]
            applied = toggles.copy()
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
