"""Per-patch minimum-weight matching and the iterative cross-patch loop.

Each (patch, measurement-basis) pair gets its own matching graph built from
the mechanisms originating on that patch; detector flips a mechanism causes on
*other* patches ride along on its edge as foreign flips.  A global decode
sweeps all graphs, XORs the foreign flips of the chosen corrections into the
other patches' effective syndromes, and repeats to a fixpoint (or the
iteration cap).  A `MatchingGraph` is nodes and edges only; the
`IterativeDecoder` alone maps detectors to graphs, nodes and slots.

Matching is exact, and its cost follows the defects rather than the graph,
as in sparse blossom (Higgott & Gidney, arXiv:2303.15933), with no graph
library on the common path.  Pairwise distances and shortest paths come from
one numpy Floyd–Warshall pass per graph at set-up.  A defect pair
(a, b) is *useful* when `dist(a, b) < dist(a, B) + dist(b, B)`, B the
boundary; otherwise sending both to the boundary costs no more, so some
optimal pairing uses only useful pairs.  `decode` therefore splits a syndrome
into the connected components of the useful relation and matches each one on
its own by subset dynamic programming for 1 to `_DP_LIMIT` defects, and by
the blossom fallback above that.  The DP walks a schedule of the subsets it
reaches, built once per cluster size; its weights live for one call.

A mechanism and a correction are each one int, laid out like a sampled
signature (`sampler.signature_columns`).  An edge's flips are its
mechanism's signature without the edge's own home detectors; the decoder
reads nothing else of it, and never where its observables or checks sit.  A
path's flips are the XOR of its edges', a component's the XOR of its
paths', and a syndrome's the XOR of its components'.  Each component's flips
are cached in a bounded per-graph cache.
Ties between equal-weight pairings go to the lexicographically smallest pair
list (defects in ascending order, the boundary before any partner), so
decoding is deterministic.  Between equally light parallel edges, the one
with the smallest `flips` int wins: a graph keeps the lowest edge id, and
its edges come in the order of `enumerate_error_mechanisms`, by signature,
which for one node pair, whose home bits are equal, is the order of their
flips.  Between equal-weight paths, the predecessor set by the lowest
intermediate node k that strictly improves a distance wins.

Each shot travels as bitsets in *slot order*, which is detector id order:
the builders number detectors by (home patch, basis), so each graph's
detectors are one contiguous range of ids, ascending, with the graphs in
`graphs` order.  The low bits of a shot's sampled signature are therefore
its slot-order int, and `syndrome_masks` cuts it into per-graph masks from
the top bit down: the highest set bit names its graph, whose mask is one
shift, and one AND with the mask of the slots below that graph drops it.
Since a correction's low bits are its foreign detectors in that same order,
the cross-patch loop reads them straight off the XOR of the current
corrections.  It is incremental: after the first sweep it re-decodes only the
graphs whose range of foreign flips changed, found from the top bit in the
same way; a graph whose syndrome is zero gets the empty correction, 0,
without a call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Detector
from .dem import ErrorMechanism, _bits

BOUNDARY = -1
_DP_LIMIT = 14  # components with more defects use the blossom fallback
CACHE_CAP = 2048  # component corrections kept per graph


@dataclass(frozen=True)
class Edge:
    """A graph edge; its id is its index in the graph's `edges`."""
    u: int                      # local node index
    v: int                      # local node index or BOUNDARY
    weight: float
    flips: int = 0              # the columns it flips, in signature layout


# Per cluster size k: the subset DP's schedule, built on first use.
_SCHEDULES: dict[int, tuple[tuple, tuple[int, ...]]] = {}


def _schedule(k: int) -> tuple[tuple, tuple[int, ...]]:
    """(states, masks) of the subset DP over k defects, indexed by local
    defect index.  `masks` lists ascending, so children first, the subsets
    that the DP reaches from the full set, the empty set at position 0.
    `states[x - 1]` is masks[x]'s (i, r, pairs): its lowest index i, the
    position r of the subset without i, and per j of that subset
    ascending, (j, position of the subset without i and j).  States that
    leave the same subset once i is gone share their `pairs`.  Stores the
    schedule in `_SCHEDULES`."""
    full = (1 << k) - 1
    reached = {0, full}
    for s in range(full, 0, -1):
        if s in reached:
            rest = s & (s - 1)
            reached.add(rest)
            reached.update([rest ^ 1 << j for j in _bits(rest)])
    masks = tuple(sorted(reached))
    at = {s: x for x, s in enumerate(masks)}
    shared: dict[int, tuple] = {}
    states = []
    for s in masks[1:]:
        rest = s & (s - 1)
        pairs = shared.get(rest)
        if pairs is None:
            pairs = shared[rest] = tuple([(j, at[rest ^ 1 << j]) for j in _bits(rest)])
        states.append(((s & -s).bit_length() - 1, at[rest], pairs))
    sched = _SCHEDULES[k] = (tuple(states), masks)
    return sched


class MatchingGraph:
    """Matching graph over `num_nodes` nodes and the boundary.

    A correction is the int of the columns its edges flip, in the layout
    of the edges' `flips`.  One cache, keyed by defect bitmask, holds the
    corrections of components; a syndrome that is one component is its own
    key, and one with several is the XOR of theirs.  The cache keeps its
    first `CACHE_CAP` entries.  A component of 1 to `_DP_LIMIT` defects is
    matched by subset DP and a larger one by blossom; its correction is the
    XOR of its pairs' cached shortest paths.
    `syndrome_hits`/`syndrome_misses` count the lookups of whole syndromes in
    `decode`, `component_hits`/`component_misses` those of components after a
    syndrome miss."""

    def __init__(self, num_nodes: int, edges: list[Edge]):
        self.n = num_nodes
        self.edges = list(edges)
        self._cache: dict[int, int] = {}
        self._paths: dict[tuple[int, int], int] = {}
        self.syndrome_hits = self.syndrome_misses = 0
        self.component_hits = self.component_misses = 0
        self._prepare()

    def _prepare(self) -> None:
        # Per node pair, the first of its lightest edges; node n acts as the
        # boundary in the distance computation.
        n = self.n
        edges = self.edges
        best: dict[tuple[int, int], int] = {}
        for i, e in enumerate(edges):
            v = n if e.v == BOUNDARY else e.v
            k = (min(e.u, v), max(e.u, v))
            cur = best.get(k)
            if cur is None or e.weight < edges[cur].weight:
                best[k] = i
        self._pair_edge = best
        # Floyd–Warshall over the lightest-edge weights.  _pred[a, b] is b's
        # predecessor on the path from a (negative: none); an entry changes
        # only on a strict improvement, so ties go to the lowest k.
        m = n + 1
        dist = np.full((m, m), np.inf)
        pred = np.full((m, m), -1, dtype=np.int32)
        for (u, v), i in best.items():
            dist[u, v] = dist[v, u] = edges[i].weight
            pred[u, v], pred[v, u] = u, v
        np.fill_diagonal(dist, 0.0)
        cand = np.empty_like(dist)
        better = np.empty((m, m), dtype=bool)
        for k in range(m):
            np.add(dist[:, k, None], dist[k], out=cand)
            np.less(cand, dist, out=better)
            np.minimum(dist, cand, out=dist)
            np.copyto(pred, pred[k], where=better)
        self._dist, self._pred = dist, pred
        # _useful[a]: bitmask of the nodes b that a useful pair (a, b) joins.
        to_b = self._dist[:n, n]
        useful = self._dist[:n, :n] < to_b[:, None] + to_b[None, :] - 1e-12
        np.fill_diagonal(useful, False)
        self._useful = [sum(1 << b for b in np.flatnonzero(row).tolist())
                        for row in useful]

    def _path_edges(self, a: int, b: int) -> tuple[int, ...]:
        out = []
        cur = b
        while cur != a:
            prev = int(self._pred[a, cur])
            if prev < 0:
                raise RuntimeError("defect unreachable: disconnected matching graph")
            k = (min(prev, cur), max(prev, cur))
            out.append(self._pair_edge[k])
            cur = prev
        return tuple(out)

    def _path(self, a: int, b: int) -> int:
        """The flips of the shortest path from a to b (b = n: the
        boundary)."""
        flips = self._paths.get((a, b))
        if flips is None:
            flips = 0
            for i in self._path_edges(a, b):
                flips ^= self.edges[i].flips
            self._paths[(a, b)] = flips
        return flips

    def decode(self, syndrome: int) -> int:
        """Minimum-weight correction for a home-detector syndrome bitmask."""
        if not syndrome:
            return 0
        cache = self._cache
        hit = cache.get(syndrome)
        if hit is not None:
            self.syndrome_hits += 1
            return hit
        self.syndrome_misses += 1
        useful = self._useful
        flips = 0
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
                if len(cache) < CACHE_CAP:
                    cache[comp] = part
            else:
                self.component_hits += 1
            flips ^= part
        return flips

    def _solve_component(self, comp: int) -> int:
        """One component's optimal correction: the XOR of its paths."""
        n = self.n
        flips = 0
        for a, b in self._match(list(_bits(comp))):
            flips ^= self._path(a, n if b == BOUNDARY else b)
        return flips

    def _match(self, defects: list[int]) -> list[tuple[int, int]]:
        """Optimal pairing of `defects` (ascending local ids) with each other
        and the boundary, as pairs sorted by their first elements.

        Subset DP over `_schedule(k)`, children first, for 1 to `_DP_LIMIT`
        defects; above that, blossom.  The lowest defect of a subset goes to
        the boundary or to the first partner that beats every earlier choice
        by more than 1e-12, so ties go to the lexicographically smallest
        pair list.  The weights and choices live for this call only."""
        k = len(defects)
        if k > _DP_LIMIT:
            return self._match_blossom(defects)
        n = self.n
        m = n + 1
        dist = memoryview(self._dist).cast("B").cast("d")  # row-major, m per row
        states, masks = _SCHEDULES.get(k) or _schedule(k)
        # Per schedule position: the subset's optimal weight, and the
        # position of what is left once its lowest defect is matched.
        f = [0.0]
        choice = [0]
        for i, r, pairs in states:
            row = defects[i] * m
            w = f[r] + dist[row + n]
            c = r
            for j, p in pairs:
                cand = f[p] + dist[row + defects[j]]
                if cand < w - 1e-12:
                    w = cand
                    c = p
            f.append(w)
            choice.append(c)
        if not math.isfinite(w):
            raise RuntimeError("decode failure: defect cannot reach the boundary")
        out = []
        x = len(masks) - 1
        while x:
            s = masks[x]
            x = choice[x]
            low = s & -s
            partner = s ^ low ^ masks[x]  # zero: the boundary
            out.append((defects[low.bit_length() - 1],
                        defects[partner.bit_length() - 1] if partner else BOUNDARY))
        return out

    def _match_blossom(self, defects: list[int]) -> list[tuple[int, int]]:
        """`_match` above `_DP_LIMIT`: its pairs sorted as the DP's, not
        in the hash order of networkx's matching set."""
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
                pairs.append((defects[min(u[1], v[1])], defects[max(u[1], v[1])]))
        return sorted(pairs)


@dataclass(slots=True)
class DecodeResult:
    corrections: dict[tuple[int, str], int]  # per graph, its correction's flips
    flips: int                               # the XOR of the corrections
    iterations_used: int
    converged: bool


class IterativeDecoder:
    """All per-patch graphs plus the cross-patch syndrome-toggle loop.

    The decoder alone maps detectors to graphs: graph (patch, basis) holds
    the detectors homed to that patch in that basis, one contiguous id
    range, and its node i is the i-th of them.  A mechanism's home bits are
    its signature's bits in its graph's range, and its edge's `flips` the
    rest of its signature.  Raises ValueError when the detectors are not
    sorted by (home patch, basis), or when a mechanism has more than two
    home detectors."""

    def __init__(self, detectors: tuple[Detector, ...], mechanisms: list[ErrorMechanism]):
        keys = [(det.home_patch, det.basis) for det in detectors]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise ValueError("detectors are not in slot order")
        self._det_mask = (1 << len(detectors)) - 1
        # Each graph's slots [lo, hi), in slot order.
        span: dict[tuple[int, str], list[int]] = {}
        for s, key in enumerate(keys):
            span.setdefault(key, [s, s])[1] = s + 1
        edges: dict[tuple[int, str], list[Edge]] = {key: [] for key in span}
        for m in mechanisms:
            key = (m.origin_patch, m.basis)
            lo, hi = span.get(key, (0, 0))
            home = m.sig >> lo & (1 << (hi - lo)) - 1
            if not home:
                continue
            ends = _bits(home)
            if len(ends) > 2:
                raise ValueError(f"mechanism with {len(ends)} home detectors is unmatchable")
            w = -math.log(m.prob / (1 - m.prob)) if 0 < m.prob < 0.5 else 0.0
            edges[key].append(Edge(ends[0], ends[1] if len(ends) == 2 else BOUNDARY, w,
                                   m.sig ^ home << lo))
        self.graphs: dict[tuple[int, str], MatchingGraph] = {}
        # Per slot, for the slot's graph: (key, graph, first slot, mask of
        # its width, mask of the slots below its first).
        self._slot_span: list[tuple] = []
        for key, (lo, hi) in span.items():
            g = self.graphs[key] = MatchingGraph(hi - lo, edges[key])
            self._slot_span += [(key, g, lo, (1 << (hi - lo)) - 1, (1 << lo) - 1)] * (hi - lo)

    def syndrome_masks(self, shot: int) -> dict[tuple[int, str], int]:
        """Split one shot's detector bits, a slot-order int, into per-graph
        bitmasks, the last graph first; graphs without a defect are left
        out."""
        out: dict[tuple[int, str], int] = {}
        spans = self._slot_span
        while shot:
            # The top defect's graph holds every bit at and above its first slot.
            key, _, lo, _, below = spans[shot.bit_length() - 1]
            out[key] = shot >> lo
            shot &= below
        return out

    def decode_shot(self, raw: dict[tuple[int, str], int],
                    max_iters: int) -> DecodeResult:
        """Decode one shot's per-graph syndromes, iterating the foreign
        flips to a fixpoint or to `max_iters` sweeps.  The result's
        `corrections` hold the graphs the loop decoded; every other graph's
        correction is 0."""
        corrections: dict[tuple[int, str], int] = {}
        flips = 0
        for key, s in raw.items():
            if s:
                new = corrections[key] = self.graphs[key].decode(s)
                flips ^= new
        # `flips`: the XOR of the current corrections, whose detector bits
        # are their foreign flips in slot order; `applied`: the flips the
        # last sweep's syndromes carried.  A later sweep re-decodes the
        # graphs whose range of `(flips ^ applied) & det_mask` is not zero.
        spans = self._slot_span
        det_mask = self._det_mask
        applied = 0
        iters = 1
        while True:
            changed = (flips ^ applied) & det_mask
            if not changed or iters >= max_iters:
                break
            iters += 1
            applied = flips
            while changed:
                key, g, lo, full, below = spans[changed.bit_length() - 1]
                changed &= below
                s = raw.get(key, 0) ^ (applied >> lo & full)
                new = g.decode(s) if s else 0
                flips ^= corrections.get(key, 0) ^ new
                corrections[key] = new
        return DecodeResult(corrections, flips, iters, not changed)
