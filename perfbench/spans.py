"""In-memory span and count recorder for one traced benchmark run.

The recorder wraps the public calls the benchmark drives, at each layer
boundary of the `distill` pipeline, from outside the program: names looked up
in the `msdsim.harness` namespace (so `run_distillation` and
`DecodingPipeline.build` call the wrappers) and methods of `IterativeDecoder`,
`MatchingGraph` and `ShotBatch`.  A span is `(name, start, end, parent, run)`
with `parent` the index of the enclosing span (-1 at the root).  Per-call
matching is counted rather than spanned: it runs tens of times per shot.

The recorder's own work around a span (opening and closing it, and the hooks
that count defects and iterations) is timed per span and left out of the
parent's self time, so `self_time` is the program's own work.
"""
from __future__ import annotations

import resource
import time
from collections import Counter

EXPECTED_SPANS = (
    "builders.build", "harness.pipeline_build", "circuit.validate",
    "dem.enumerate", "decoder.graphs_build", "harness.run_distillation",
    "sampler.sample", "harness.unpack", "decoder.syndrome_masks",
    "decoder.decode_shot", "harness.predict",
)
EXPECTED_COUNTS = ("decoder.match_calls",)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, str]] = []
        # Per span: recorder time spent around it, outside [start, end].
        self.wrap_s: list[float] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.wrap_s.append(0.0)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.run_id))
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        name, start, _, parent, run = self.spans[i]
        self.spans[i] = (name, start, time.perf_counter(), parent, run)
        self._stack.pop()

    def call(self, name: str, fn, *args, after=None):
        """`fn(*args)` in a span named `name`, then `after(args, result)`."""
        t_in = time.perf_counter()
        i = self.open(name)
        try:
            out = fn(*args)
        finally:
            self.close(i)
        if after is not None:
            after(args, out)
        _, start, end, _, _ = self.spans[i]
        self.wrap_s[i] = time.perf_counter() - t_in - (end - start)
        return out

    # -- instrumentation --------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)
        call = self.call

        def wrapper(*args):
            return call(name, orig, *args, after=after)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries; raises if any hook point is missing."""
        from msdsim import harness
        from msdsim.decoder import IterativeDecoder, MatchingGraph
        from msdsim.sampler import ShotBatch

        counts = self.counts
        values = self.values

        def after_sample(args, batch):
            values["sampler.batch_mb"] = sum(
                v.nbytes for v in vars(batch).values() if hasattr(v, "nbytes")) / 2**20

        def after_masks(args, masks):
            counts["decoder.defects"] += sum(bin(m).count("1") for m in masks.values())

        def after_decode(args, res):
            counts[f"decoder.iters_{res.iterations_used}"] += 1
            if not res.converged:
                counts["decoder.nonconverged"] += 1

        def dem_enumerate(circuit):
            # Growth of the process's high-water mark: meaningful because the
            # traced set-up is the first in a fresh process.
            before = maxrss_mb()
            out = self.call("dem.enumerate", dem_orig, circuit)
            values["dem.rss_growth_mb"] = maxrss_mb() - before
            values["dem.mechanisms"] = len(out)
            return out

        dem_orig = harness.enumerate_error_mechanisms
        self._patch(harness, "enumerate_error_mechanisms", dem_enumerate)
        self._span_wrap(harness, "validate_annotations", "circuit.validate")
        self._span_wrap(harness, "sample", "sampler.sample", after_sample)
        self._span_wrap(harness, "predict_outcome", "harness.predict")
        self._span_wrap(IterativeDecoder, "__init__", "decoder.graphs_build")
        self._span_wrap(IterativeDecoder, "syndrome_masks", "decoder.syndrome_masks",
                        after_masks)
        self._span_wrap(IterativeDecoder, "decode_shot", "decoder.decode_shot",
                        after_decode)
        self._span_wrap(ShotBatch, "unpack", "harness.unpack")

        match_decode = MatchingGraph.decode
        match_uncached = MatchingGraph._match
        match_blossom = MatchingGraph._match_blossom

        def decode(graph, syndrome):
            counts["decoder.match_calls"] += 1
            return match_decode(graph, syndrome)

        def match(graph, defects):
            counts["decoder.match_uncached"] += 1
            return match_uncached(graph, defects)

        def blossom(graph, defects):
            counts["decoder.blossom_calls"] += 1
            return match_blossom(graph, defects)

        self._patch(MatchingGraph, "decode", decode)
        self._patch(MatchingGraph, "_match", match)
        self._patch(MatchingGraph, "_match_blossom", blossom)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------
    def check_fired(self) -> None:
        fired = {s[0] for s in self.spans}
        missing = [n for n in EXPECTED_SPANS if n not in fired]
        missing += [n for n in EXPECTED_COUNTS if not self.counts[n]]
        if missing:
            raise RuntimeError(f"trace: expected spans/counts never fired: {missing}")

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_time(self, name: str) -> float:
        """Total duration of `name` spans minus the time their direct children
        and the recorder's work around them cover (children never overlap: the
        program is single-threaded)."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        children = sum(s[2] - s[1] + w for s, w in zip(self.spans, self.wrap_s)
                       if s[3] in own)
        return total - children
