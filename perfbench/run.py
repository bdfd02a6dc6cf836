"""msdsim benchmark: `distill` throughput, set-up time and peak RSS.

Run from the repository root:

    python3 perfbench/run.py --workload distill7-d3 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 1 --trace 1 --smoke

Each workload runs in a fresh child process (`workload.py`) with BLAS threads
pinned to one and `src` on PYTHONPATH.  `--trace 0` prints the end-to-end
metrics named in BENCHMARK.json; `--trace 1` prints its per-layer metrics from
a separate traced run.  Every run is gated: all repetitions at one seed must
give bit-identical counts, and p_accept and p_out must lie in a binomial band
around the reference rates in `reference.json`.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
`--smoke` takes the same code path with tiny shot counts.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Standard deviations of the difference between a run's rate and the
# reference rate that the gate allows: a correct decoder on another RNG stream
# fails with probability ~6e-7 per rate, while a decoder that ignores
# cross-patch toggles fails.
BAND_Z = 5.0
CHILD_TIMEOUT_S = 175
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


def in_band(k: int, n: int, k_ref: int, n_ref: int, z: float = BAND_Z) -> bool:
    """Does the rate k/n agree with the reference rate k_ref/n_ref?

    Two-proportion test: |p - p_ref| <= z * sigma, where sigma is the standard
    deviation of the difference if both rates equal the pooled rate."""
    if n == 0:
        return False
    pooled = (k + k_ref) / (n + n_ref)
    sigma = math.sqrt(pooled * (1 - pooled) * (1 / n + 1 / n_ref))
    return abs(k / n - k_ref / n_ref) <= z * sigma


def gate(reps: list[dict], ref: dict) -> list[str]:
    """Problems with a run's repetitions; empty when the run is correct."""
    problems = []
    key = lambda r: (r["accepted"], r["errors"], r["iteration_hist"])  # noqa: E731
    if any(key(r) != key(reps[0]) for r in reps):
        problems.append("counts differ between repetitions at one seed: "
                        + json.dumps([key(r) for r in reps]))
    for i, r in enumerate(reps):
        if not in_band(r["accepted"], r["shots"], ref["accepted"], ref["shots"]):
            problems.append(f"rep {i}: p_accept {r['accepted']}/{r['shots']} outside "
                            f"band around {ref['accepted']}/{ref['shots']}")
        if not in_band(r["errors"], r["accepted"], ref["errors"], ref["accepted"]):
            problems.append(f"rep {i}: p_out {r['errors']}/{r['accepted']} outside "
                            f"band around {ref['errors']}/{ref['accepted']}")
    return problems


def run_child(name: str, args) -> dict:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace-out", str(out_dir / f"{stem}.spans.jsonl")]
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    (out_dir / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")
    return raw


def summarise(raw: dict, trace: int, specs: dict[str, str], ref: dict) -> dict:
    """Gate a child's raw results and turn them into the workload's result.

    A run that raised or failed the gate counts all of its shots as failed,
    the raising call's included; with no completed call it reports no
    metrics."""
    reps = raw["reps"]
    problems = gate(reps, ref) if reps else []
    attempted = sum(r["shots"] for r in reps)
    if raw["error"] is not None:
        problems.append("call raised: " + raw["error"].strip().splitlines()[-1])
        attempted += raw["shots_per_rep"]
    if trace:
        values = raw.get("layers", {})
    elif reps:
        values = {
            "shots_per_s": statistics.median(r["shots"] / r["run_s"] for r in reps),
            "setup_s": statistics.median(raw["setups"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    else:
        values = {}
    if values and set(values) != set(specs):
        raise RuntimeError(f"{raw['workload']}: metrics {sorted(set(values) ^ set(specs))} "
                           "are not both measured and named in BENCHMARK.json")
    return {"correct": not problems, "attempted": attempted,
            "failed": attempted if problems else 0, "problems": problems,
            "env": raw["env"], "calls": len(reps),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in specs.items() if k in values}}


def measure(name: str, args, specs: dict[str, str], ref: dict) -> dict:
    res = summarise(run_child(name, args), args.trace, specs, ref)
    for p in res["problems"]:
        print(f"GATE FAILED {name}: {p}", file=sys.stderr)
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep repeating a workload until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny shot counts")
    args = ap.parse_args()

    if not (ROOT / "src" / "msdsim" / "__init__.py").is_file():
        print(f"error: no msdsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    ref = json.loads((HERE / "reference.json").read_text())

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args, specs, ref[name]) for name in names}

    env = next(iter(results.values()))["env"]
    print(f"# nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']}")
    for name, res in results.items():
        print(f"# {name}: correct={res['correct']} shots={res['attempted']} "
              f"failed={res['failed']} run_distillation calls={res['calls']}")
        for metric, v in res["metrics"].items():
            print(f"{name:20s} {metric:32s} {v['value']:14.6g} {v['unit']}")
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
