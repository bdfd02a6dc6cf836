"""Regenerate perfbench/reference.json, the correctness gate's reference rates.

For each workload, pools RUNS calls of the workload's own shot count (seeds
100000 to 100009) through one pipeline and stores the pooled shot, accepted
and error counts.  The gate then requires every benchmark run's p_accept and
p_out to lie in a binomial band around these rates.

Run from the repository root:
    PYTHONPATH=src python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from msdsim import harness
from msdsim.builders import build_distillation_circuit
from msdsim.protocols import build_protocol

from workloads import WORKLOADS

REFERENCE_SEED0 = 100_000
RUNS = 10


def main() -> int:
    ref = {}
    for name, w in WORKLOADS.items():
        cfg = harness.ExperimentConfig(protocol=w.protocol, d=w.d,
                                       p_circuit=w.p_circuit, p_in=w.p_in,
                                       shots=w.shots)
        circ = build_distillation_circuit(build_protocol(w.protocol), w.d, cfg.noise())
        pipeline = harness.DecodingPipeline.build(circ)
        shots = accepted = errors = 0
        for i in range(RUNS):
            stats = harness.run_distillation(replace(cfg, seed=REFERENCE_SEED0 + i), pipeline)
            shots += stats.shots
            accepted += stats.accepted
            errors += stats.errors
        ref[name] = {"shots": shots, "accepted": accepted, "errors": errors,
                     "seeds": [REFERENCE_SEED0, REFERENCE_SEED0 + RUNS - 1]}
        print(name, ref[name], flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
