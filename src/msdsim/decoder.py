"""Per-patch minimum-weight matching and the ordered cross-patch walk.

Each (patch, measurement-basis) pair gets its own matching graph built from
the mechanisms originating on that patch; detector flips a mechanism causes on
*other* patches ride along on its edge as foreign flips.  A graph is *live*
when its edges flip an observable, a check, or a detector of a live graph;
only a live graph's correction can reach a shot's score.  A shot is decoded
in one walk over the live graphs: each is decoded once, on its raw syndrome
XOR the foreign flips of the graphs decoded before it, so no graph waits
for a later one and the result is, off the dead graphs' detectors, the
fixpoint of iterating the corrections of every graph.  A
`MatchingGraph` is nodes and edges only; the `IterativeDecoder` alone maps
detectors to graphs, nodes and slots.

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
the builders number detectors so that each graph's detectors are one
contiguous range of ids, ascending, and every edge flips detectors below its
own graph's range only (`MultiPatchBuilder.finish`; the decoder raises
ValueError on any other layout).  The low bits of a shot's sampled signature
are therefore its slot-order int, and a correction's low bits are its
foreign detectors in that same order.  So the walk, from the top set bit
down, reaches a graph only after every graph that feeds it.  At each step
the bit names its graph, whose syndrome is one shift, and the walk goes on
with the bits below that graph XOR the live foreign flips of its
correction.  The same order lets one ascending pass decide every graph's
liveness after the graphs it feeds.  The decoder reads no basis but in its
graphs' keys.  A dead graph is never built, and a graph without a defect is
never decoded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

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
    flips: int                          # the XOR of the live graphs' corrections
    # Every shot is decoded in one pass to the fixpoint; the benchmark's
    # tracer still reads these two.
    iterations_used: ClassVar[int] = 1
    converged: ClassVar[bool] = True


class IterativeDecoder:
    """The live per-patch graphs plus the ordered cross-patch walk.

    The decoder alone maps detectors to graphs: graph (patch, basis) holds
    the detectors homed to that patch in that basis, one contiguous slot
    range, and its node i is the i-th of them.  A mechanism's home bits are
    its signature's bits in its graph's range, and its edge's `flips` the
    rest of its signature.  `live_slots` holds the slots of the live graphs
    (the module docstring): those whose edges flip an observable or check
    column, above the detectors, or a live graph's detector; `graphs` holds
    the live graphs alone, in slot order.  Raises ValueError when a graph's
    detectors are not one contiguous range, when a mechanism has more than
    two home detectors, or when any graph's edges, live or dead, flip a
    detector at or above the graph's first slot."""

    def __init__(self, detectors: tuple[Detector, ...], mechanisms: list[ErrorMechanism]):
        nd = len(detectors)
        # Each graph's slots [lo, hi), ascending.
        span: dict[tuple[int, str], list[int]] = {}
        for s, det in enumerate(detectors):
            key = (det.home_patch, det.basis)
            lo_hi = span.setdefault(key, [s, s])
            if lo_hi[1] != s:
                raise ValueError(f"graph {key}'s detectors are not one contiguous range")
            lo_hi[1] = s + 1
        found = {key: [] for key in span}    # per graph, its edges' fields
        reach = dict.fromkeys(span, 0)       # per graph, the OR of its edges' flips
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
            flips = m.sig ^ home << lo
            found[key].append((ends[0], ends[1] if len(ends) == 2 else BOUNDARY, w, flips))
            reach[key] |= flips
        # A graph is live when its edges flip an observable, a check or a
        # live graph's detector.  A graph feeds only graphs below it, so one
        # ascending pass decides every fed graph before its feeders.
        live = 0
        for key, (lo, hi) in span.items():
            if reach[key] & (1 << nd) - (1 << lo):
                raise ValueError(f"graph {key} flips a detector at or above its first slot")
            if reach[key] >> nd or reach[key] & live:
                live |= (1 << hi) - (1 << lo)
        self.live_slots = live
        self.graphs: dict[tuple[int, str], MatchingGraph] = {}
        # Per live slot, its graph and the graph's first slot; None elsewhere.
        self._slot_span: list[tuple | None] = [None] * nd
        for key, (lo, hi) in span.items():
            if live >> lo & 1:
                g = self.graphs[key] = MatchingGraph(hi - lo, [Edge(*f) for f in found[key]])
                self._slot_span[lo:hi] = [(g, lo)] * (hi - lo)

    def syndrome_masks(self, shot: int) -> dict[str, int]:
        """One shot's signature, a slot-order int, kept on the live graphs'
        slots: the input of `decode_shot`.  The dict's one entry keeps the
        shape the benchmark's tracer sums."""
        return {"live": shot & self.live_slots}

    def decode_shot(self, masks: dict[str, int]) -> DecodeResult:
        """Decode one shot, each live graph once, from the top set bit down,
        on its raw syndrome XOR the foreign flips of the graphs decoded
        before it.  `masks` must be `syndrome_masks`' output, which holds
        live slots only: a dead slot has no graph to decode it.  `flips` is
        the XOR of the live graphs' corrections: every observable and check
        column, and every live detector, equals the fixpoint of all graphs'
        corrections; a dead graph's detectors may differ."""
        spans, live = self._slot_span, self.live_slots
        flips = 0
        todo = masks["live"]
        while todo:
            # The top defect's graph holds every bit at and above its first slot.
            g, lo = spans[todo.bit_length() - 1]
            new = g.decode(todo >> lo)
            flips ^= new
            todo = (todo & (1 << lo) - 1) ^ (new & live)
        return DecodeResult(flips)
