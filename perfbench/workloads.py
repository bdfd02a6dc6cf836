"""The benchmark's workloads: one `msdsim distill` parameter point each.

Each workload fixes one `p_in`, so no pipeline is ever reused across noise
strengths, and fixes its shot count: the decoder's syndrome cache warms during
a run and users pay that warm-up on every run, so throughput depends on how
many shots one run decodes.

Why these two:
- distill7-d3: small DEM; per-shot work (sampler, cached matching, harness
  glue) dominates the run.
- distill15-d3-noisy: the DEM is ~90% of set-up and its dense planes set the
  process's peak RSS; 47 matching graphs and ~45 defects per shot make most
  matchings miss the syndrome cache, so uncached matching dominates the shots.
7-to-1 at d=5 is not a workload: its ~40 s of set-ups per run left too little
of a run for the shot phase, and its throughput was the least steady.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str       # msdsim.protocols name, e.g. "SevenToOne"
    d: int
    p_circuit: float
    p_in: float
    shots: int          # shots per run_distillation call
    smoke_shots: int    # shots per call in --smoke mode


WORKLOADS = {w.name: w for w in (
    Workload("distill7-d3", "SevenToOne", 3, 1e-3, 0.01, 20_000, 300),
    Workload("distill15-d3-noisy", "FifteenToOne", 3, 3e-3, 0.1, 10_000, 200),
)}
