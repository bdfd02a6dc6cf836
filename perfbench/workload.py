"""Measure one workload in this (fresh) process; print raw results as JSON.

`run.py` starts this script once per workload with BLAS threads pinned and
`src` on PYTHONPATH, so the peak RSS it reports is the workload's own.  Every
`run_distillation` call starts on a cold syndrome cache, as a user's does.
All calls use the same seed, so their counts must agree bit for bit.

Untraced (`--trace 0`): SETUPS set-ups, each followed by one
`run_distillation` call; further calls on deep copies of the last, never-run
pipeline until the calls add up to `--seconds`.  `peak_rss_mb` is the
high-water mark after the first set-up and call, before any copy exists: what
one `msdsim distill` parameter point costs.  Traced (`--trace 1`): one traced
set-up and call, then one untraced set-up and call to measure the tracing
overhead.
"""
from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import msdsim  # noqa: E402
from msdsim import harness  # noqa: E402
from msdsim.builders import build_distillation_circuit  # noqa: E402
from msdsim.protocols import build_protocol  # noqa: E402
from spans import Tracer, maxrss_mb  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups per untraced run; `setup_s` is their median.
SETUPS = 2
# Do not start a repetition that could push the process past this wall time.
WALL_LIMIT_S = 150.0


def _untraced_call(name, fn, *args):
    return fn(*args)


def _config(w, **kwargs) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(protocol=w.protocol, d=w.d, p_circuit=w.p_circuit,
                                    p_in=w.p_in, **kwargs)


def set_up(w, tracer: Tracer | None = None):
    """Build the circuit and decoding pipeline; return (pipeline, wall s)."""
    call = tracer.call if tracer is not None else _untraced_call
    t0 = time.perf_counter()
    circ = call("builders.build", build_distillation_circuit,
                build_protocol(w.protocol), w.d, _config(w).noise())
    pipeline = call("harness.pipeline_build", harness.DecodingPipeline.build, circ)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        noise_sites = 0
        for ins in circ.instructions:
            if ins.op == "DEPOL1":
                noise_sites += len(ins.targets)
            elif ins.op in ("DEPOL2", "INJECT_Z") or (ins.op in ("MX", "MZ") and ins.p > 0):
                noise_sites += 1
        tracer.values["builders.instructions"] = len(circ.instructions)
        tracer.values["builders.noise_sites"] = noise_sites
        tracer.values["decoder.graph_edges"] = sum(
            len(g.edges) for g in pipeline.decoder.graphs.values())
    return pipeline, seconds


def shot_phase(w, shots: int, seed: int, pipeline, tracer: Tracer | None = None) -> dict:
    """One `run_distillation` call on a pipeline whose caches are cold."""
    call = tracer.call if tracer is not None else _untraced_call
    cfg = _config(w, shots=shots, seed=seed)
    gc.collect()
    t0 = time.perf_counter()
    stats = call("harness.run_distillation", harness.run_distillation, cfg, pipeline)
    return {"run_s": time.perf_counter() - t0, "shots": stats.shots,
            "accepted": stats.accepted, "errors": stats.errors,
            "iteration_hist": {str(k): v for k, v in sorted(stats.iteration_hist.items())}}


def layer_metrics(tr: Tracer, shots: int, untraced_run_s: float) -> dict[str, float]:
    total = lambda name: sum(tr.durations(name))  # noqa: E731
    decode_us = sorted(x * 1e6 for x in tr.durations("decoder.decode_shot"))
    pct = statistics.quantiles(decode_us, n=100, method="inclusive")
    p50, p99 = pct[49], pct[98]
    calls = tr.counts["decoder.match_calls"]
    traced_run_s = total("harness.run_distillation")
    m = {
        "builders.build_s": total("builders.build"),
        "builders.instructions": tr.values["builders.instructions"],
        "builders.noise_sites": tr.values["builders.noise_sites"],
        "circuit.validate_s": total("circuit.validate"),
        "dem.enumerate_s": total("dem.enumerate"),
        "dem.mechanisms": tr.values["dem.mechanisms"],
        "dem.rss_growth_mb": tr.values["dem.rss_growth_mb"],
        "decoder.graphs_build_s": total("decoder.graphs_build"),
        "decoder.graph_edges": tr.values["decoder.graph_edges"],
        "sampler.sample_s": total("sampler.sample"),
        "sampler.us_per_shot": total("sampler.sample") / shots * 1e6,
        "sampler.batch_mb": tr.values["sampler.batch_mb"],
        "decoder.syndrome_masks_s": total("decoder.syndrome_masks"),
        "decoder.decode_shot_s": total("decoder.decode_shot"),
        "decoder.decode_shot_us_p50": p50,
        "decoder.decode_shot_us_p99": p99,
        "decoder.match_calls": calls,
        "decoder.match_calls_per_shot": calls / shots,
        "decoder.match_cache_hit_ratio": 1 - tr.counts["decoder.match_uncached"] / calls,
        "decoder.blossom_calls": tr.counts["decoder.blossom_calls"],
        "decoder.iters_1": tr.counts["decoder.iters_1"],
        "decoder.iters_2": tr.counts["decoder.iters_2"],
        "decoder.iters_3": tr.counts["decoder.iters_3"],
        "decoder.nonconverged": tr.counts["decoder.nonconverged"],
        "decoder.defects_per_shot": tr.counts["decoder.defects"] / shots,
        "harness.run_s": traced_run_s,
        "harness.unpack_s": total("harness.unpack"),
        "harness.predict_s": total("harness.predict"),
        "harness.self_s": tr.self_time("harness.run_distillation"),
        "trace.spans": len(tr.spans),
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.overhead_ratio": (traced_run_s - untraced_run_s) / untraced_run_s,
    }
    return {k: float(v) for k, v in m.items()}


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-out", default=None, help="write spans here (JSON lines)")
    args = ap.parse_args()

    src = HERE.parent / "src"
    if src not in Path(msdsim.__file__).resolve().parents:
        raise SystemExit(f"msdsim imported from {msdsim.__file__}, not from {src}")

    w = WORKLOADS[args.workload]
    shots = w.smoke_shots if args.smoke else w.shots
    out: dict = {"workload": w.name, "seed": args.seed, "shots_per_rep": shots,
                 "env": environment(), "setups": [], "reps": [], "error": None}
    start = time.perf_counter()
    try:
        if args.trace:
            tracer = Tracer(run_id=f"{w.name}/seed{args.seed}")
            tracer.install()
            try:
                pipeline, setup_s = set_up(w, tracer)
                traced = shot_phase(w, shots, args.seed, pipeline, tracer)
            finally:
                tracer.uninstall()
            tracer.check_fired()
            del pipeline
            gc.collect()
            pipeline, untraced_setup_s = set_up(w)
            untraced = shot_phase(w, shots, args.seed, pipeline)
            out["setups"] = [setup_s, untraced_setup_s]
            out["reps"] = [traced, untraced]
            out["layers"] = layer_metrics(tracer, shots, untraced["run_s"])
            if args.trace_out:
                with open(args.trace_out, "w") as f:
                    for s in tracer.spans:
                        f.write(json.dumps(s) + "\n")
        else:
            # Every run_distillation call needs cold caches.  Each set-up feeds
            # one call; further calls get a deep copy of the last set-up's
            # never-run pipeline, which costs no set-up time.
            for k in range(SETUPS):
                gc.collect()
                pipeline, setup_s = set_up(w)
                out["setups"].append(setup_s)
                if k == SETUPS - 1:
                    pristine = copy.deepcopy(pipeline)
                out["reps"].append(shot_phase(w, shots, args.seed, pipeline))
                del pipeline
                if k == 0:
                    out["peak_rss_mb"] = maxrss_mb()
            while sum(r["run_s"] for r in out["reps"]) < args.seconds:
                per_rep = (time.perf_counter() - start) / len(out["reps"])
                if time.perf_counter() - start + per_rep > WALL_LIMIT_S:
                    break
                out["reps"].append(
                    shot_phase(w, shots, args.seed, copy.deepcopy(pristine)))
    except Exception:
        out["error"] = traceback.format_exc()
        print(out["error"], file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
