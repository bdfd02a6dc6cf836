"""End-to-end acceptance suite.

Ten numbered criteria covering the whole stack: closed-form/oracle agreement,
logical-level Monte Carlo, the surface-code pipeline at zero circuit noise,
the circuit-noise sweep against its floor-plus-cubic prediction (the d=3
decode floor, anchored to the single-patch memory rate, XOR the noiseless
analytic curve), decoder optimality and iteration bounds, the CNOT-block
benchmark, cost accounting, and reproducibility/throughput.  Each test prints
one summary line; heavy Monte Carlo runs are shared through module fixtures.
"""
import math
import time

import numpy as np
import pytest

from matching_oracle import brute_force_decode, cluster_correction
from sampler_oracle import injection_rows
from msdsim.builders import NoiseModel, build_distillation_circuit
from msdsim.decoder import BOUNDARY, Edge, MatchingGraph
from msdsim.harness import (ExperimentConfig, qubit_cycles, run_distillation,
                            run_logical, run_memory_baseline, run_subcircuit,
                            tally, DecodingPipeline)
from msdsim.protocols import (FIFTEEN_TO_ONE, SEVEN_TO_ONE, analytic_pout,
                              build_protocol, discard_ratio, exhaustive_oracle)
from msdsim.sampler import fault_table, sample


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {detail}"


def fmt_ratios(ratios: dict) -> str:
    return ", ".join(f"{p}:{r:.2f}" for p, r in ratios.items())


def binom_sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1 - p), 1e-12) / n)


LOGICAL_PINS = (0.01, 0.05, 0.1, 0.3)
CIRCUIT_PINS = (0.05, 0.1, 0.2, 0.3)
PLATEAU_PINS = (1e-3, 3e-3)


# ---------------------------------------------------------------------------
# shared Monte Carlo runs


@pytest.fixture(scope="module")
def zero_noise_runs():
    """Criterion 4/6: d=3 surface pipeline with p_circuit=0, p_in sweep on
    one pipeline."""
    spec = build_protocol(SEVEN_TO_ONE)
    pipeline = DecodingPipeline.build(build_distillation_circuit(spec, 3, NoiseModel(0.0)))
    out = {}
    for p_in in LOGICAL_PINS:
        cfg = ExperimentConfig(protocol=SEVEN_TO_ONE, d=3, p_circuit=0.0,
                               p_in=p_in, shots=100_000, seed=41)
        out[p_in] = run_distillation(cfg, pipeline)
    return out


@pytest.fixture(scope="module")
def circuit_noise_runs():
    """Criterion 5/6/10: d=3 surface pipeline at p_circuit=1e-3, p_in sweep
    on one pipeline."""
    spec = build_protocol(SEVEN_TO_ONE)
    pipeline = DecodingPipeline.build(build_distillation_circuit(spec, 3, NoiseModel(1e-3)))
    out = {}
    for p_in in CIRCUIT_PINS + PLATEAU_PINS:
        cfg = ExperimentConfig(protocol=SEVEN_TO_ONE, d=3, p_circuit=1e-3,
                               p_in=p_in, shots=100_000, seed=5)
        out[p_in] = run_distillation(cfg, pipeline)
    return out


def memory_config(p_circuit: float) -> ExperimentConfig:
    """Criterion 5/7: d=3, 5-round single-patch memory / CNOT-block config."""
    return ExperimentConfig(protocol=SEVEN_TO_ONE, d=3, p_circuit=p_circuit,
                            shots=100_000, seed=23, rounds=5)


@pytest.fixture(scope="module")
def memory_baseline_1e3():
    """Criterion 5/7: single-patch memory baseline at p_circuit=1e-3."""
    return run_memory_baseline(memory_config(1e-3))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_oracle_matches_closed_form():
    """Exhaustive syndrome-map oracle equals the closed-form output error rate."""
    t0 = time.time()
    worst = 0.0
    for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
        exhaustive_oracle.cache_clear()
        table = exhaustive_oracle(kind)
        for p in np.linspace(0.0, 0.5, 20):
            worst = max(worst, abs(table.p_out(p) - analytic_pout(kind, p)))
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 10.0
    report(1, ok, f"max |oracle - formula| = {worst:.2e}, runtime {dt:.1f}s")


def test_criterion_02_leading_order_constants():
    """p_out -> 7p^3 (7-to-1) and 35p^3 (15-to-1) as p -> 0."""
    p = 1e-4
    r7 = analytic_pout(SEVEN_TO_ONE, p) / (7 * p**3)
    r15 = analytic_pout(FIFTEEN_TO_ONE, p) / (35 * p**3)
    ok = 0.99 <= r7 <= 1.01 and 0.99 <= r15 <= 1.01
    report(2, ok, f"p_out/7p^3 = {r7:.5f}, p_out/35p^3 = {r15:.5f} at p=1e-4")


def test_criterion_03_logical_monte_carlo():
    """Sampled logical-level runs track the formulas and discard ratios."""
    rows = []
    ok = True
    for kind in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
        spec = build_protocol(kind)
        for p_in in LOGICAL_PINS:
            shots = 400_000
            st = run_logical(ExperimentConfig(protocol=kind, p_in=p_in,
                                              shots=shots, seed=17))
            want_out = analytic_pout(kind, p_in)
            want_disc = discard_ratio(spec, p_in)
            z_out = abs(st.p_out - want_out) / binom_sigma(want_out, st.accepted)
            z_disc = abs(st.discard_ratio - want_disc) / binom_sigma(want_disc, shots)
            ok &= z_out < 3 and z_disc < 3
            rows.append(f"{kind}@{p_in}:z_out={z_out:.1f},z_disc={z_disc:.1f}")
    report(3, ok, "; ".join(rows))


def test_criterion_04_surface_matches_logical_at_zero_noise(zero_noise_runs):
    """p_circuit=0 surface pipeline reproduces the logical-level targets, and
    each of the 2^7 injection patterns, the XOR of its resources' injection
    rows, decodes and scores as the oracle says."""
    ok = True
    rows = []
    for p_in, st in zero_noise_runs.items():
        want_out = analytic_pout(SEVEN_TO_ONE, p_in)
        want_disc = discard_ratio(build_protocol(SEVEN_TO_ONE), p_in)
        z_out = abs(st.p_out - want_out) / binom_sigma(want_out, st.accepted)
        z_disc = abs(st.discard_ratio - want_disc) / binom_sigma(want_disc, st.shots)
        ok &= z_out < 3 and z_disc < 3
        rows.append(f"p_in={p_in}:z_out={z_out:.1f},z_disc={z_disc:.1f}")

    spec = build_protocol(SEVEN_TO_ONE)
    pipeline = DecodingPipeline.build(build_distillation_circuit(spec, 3, NoiseModel(0.0)))
    table = exhaustive_oracle(SEVEN_TO_ONE)
    inj = injection_rows(pipeline.table, spec.num_data)
    exact = True
    for pat in range(1 << spec.num_resources):
        sig = 0
        for r in range(spec.num_resources):
            sig ^= inj[r] if pat >> r & 1 else 0
        st = tally(pipeline, [sig], 3)[0]
        exact &= bool(st.accepted) == bool(table.accepted[pat])
        if st.accepted:
            exact &= bool(st.errors) == bool(table.output_error[pat])
    ok &= exact
    report(4, ok, "; ".join(rows) + f"; pattern table exact: {exact}")


def test_criterion_05_circuit_noise_regime(circuit_noise_runs,
                                           memory_baseline_1e3):
    """d=3, p_circuit=1e-3 sweep tracks the circuit-noise prediction f XOR a:
    a decode floor f, independent of p_in, on top of the noiseless analytic
    curve a(p_in).

    The floor f is the mean p_out at the plateau pins.  It is the two-fault
    volume of the output observable's spacetime web, which holds a whole
    patch timeline, so it is anchored within x2 of the single-patch memory
    rate at the same d and p_circuit.  Each p_out lies within x3 of
    f + a - 2fa; the excess (p_out - f)/(1 - 2f) is positive with a cubic
    log-log slope in [2.5, 3.5]; and the plateau pins agree within x2.
    """
    lo = [circuit_noise_runs[p].p_out for p in PLATEAU_PINS]
    plateau = all(v > 0 for v in lo) and max(lo) < 2 * min(lo)
    floor = float(np.mean(lo))
    anchor = floor / memory_baseline_1e3.p_out
    anchored = 1 / 2 <= anchor <= 2

    raw, ratios, excess = {}, {}, {}
    for p_in in CIRCUIT_PINS:
        p_out = circuit_noise_runs[p_in].p_out
        a = analytic_pout(SEVEN_TO_ONE, p_in)
        raw[p_in] = p_out / a
        ratios[p_in] = p_out / (floor + a - 2 * floor * a)
        excess[p_in] = (p_out - floor) / (1 - 2 * floor)
    xs = np.log(CIRCUIT_PINS)
    raw_slope = float(np.polyfit(
        xs, np.log([circuit_noise_runs[p].p_out for p in CIRCUIT_PINS]), 1)[0])
    positive = all(e > 0 for e in excess.values())
    slope = (float(np.polyfit(xs, np.log(list(excess.values())), 1)[0])
             if positive else float("nan"))
    within3 = all(1 / 3 <= r <= 3 for r in ratios.values())
    cubic = positive and 2.5 <= slope <= 3.5
    ok = within3 and cubic and plateau and anchored
    detail = (f"floor {floor:.4f} = {anchor:.2f}x memory "
              f"{memory_baseline_1e3.p_out:.4f}; "
              f"ratios to f+a {fmt_ratios(ratios)}; excess slope {slope:.2f}; "
              f"noiseless ratios {fmt_ratios(raw)}; "
              f"raw slope {raw_slope:.2f}; plateau {lo[0]:.4f}/{lo[1]:.4f}")
    report(5, ok, detail)


def test_criterion_06_iteration_bound(zero_noise_runs, circuit_noise_runs):
    """>= 99.9% of decoded shots converge within 3 global iterations: a
    statement about these d=3 runs at p_circuit <= 1e-3.  At 7-to-1 d=7
    (p_circuit 1e-3) about 0.5% of shots do not converge within 3."""
    total = within = 0
    for st in list(zero_noise_runs.values()) + list(circuit_noise_runs.values()):
        for iters, n in st.iteration_hist.items():
            total += n
            if iters <= 3:
                within += n
    frac = within / total
    ok = frac >= 0.999
    report(6, ok, f"{within}/{total} shots <= 3 iterations ({frac:.5f})")


def test_criterion_07_cnot_block_matches_memory(memory_baseline_1e3):
    """Per-patch CNOT-block observable failure rates within x2 of the matched
    memory baseline."""
    ok = True
    rows = []
    for p in (5e-4, 1e-3):
        cfg = memory_config(p)
        mem = (memory_baseline_1e3 if p == 1e-3
               else run_memory_baseline(cfg))
        per_patch = run_subcircuit(cfg)
        worst = max(st.p_out / mem.p_out for st in per_patch.values())
        ok &= worst <= 2.0
        rows.append(f"p={p}: worst patch/memory = {worst:.2f} "
                    f"(memory {mem.p_out:.2e})")
    report(7, ok, "; ".join(rows))


def test_criterion_08_matching_equals_brute_force():
    """Matching weight equals the exhaustive pairing oracle on 500 random
    graphs with <= 12 detectors.  Edge i flips bit i alone, so the decoded
    flips name the edge set whose weight is compared."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    mismatched = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        edges = []
        for i in range(n):
            edges.append(Edge(u=i, v=BOUNDARY,
                              weight=float(rng.uniform(0.5, 4.0)), flips=1 << len(edges)))
        for _ in range(2 * n):
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.append(Edge(u=int(u), v=int(v),
                                  weight=float(rng.uniform(0.2, 3.0)),
                                  flips=1 << len(edges)))
        g = MatchingGraph(n, edges)
        syndrome = int(rng.integers(0, 1 << n))
        corr = cluster_correction(g, syndrome)
        mismatched += g.decode(syndrome) != corr.flips
        worst = max(worst, abs(corr.weight - brute_force_decode(g, syndrome)))
    ok = worst <= 1e-9 and mismatched == 0
    report(8, ok, f"500 graphs, max weight deviation {worst:.1e}, "
                  f"{mismatched} decodes off the matched edge set")


def test_criterion_09_cost_accounting():
    """Spacetime cost is 47d^2 (7-to-1) and 111d^2 (15-to-1), exactly."""
    ok = all(qubit_cycles(SEVEN_TO_ONE, d) == 47 * d * d and
             qubit_cycles(FIFTEEN_TO_ONE, d) == 111 * d * d
             for d in (3, 5, 7, 9))
    report(9, ok, "47d^2 / 111d^2 exact for d in {3,5,7,9}")


def test_criterion_10_reproducibility_and_throughput(circuit_noise_runs):
    """Fixed seeds give byte-identical outputs; 1e5 decoded shots < 5 min."""
    circ = build_distillation_circuit(build_protocol(SEVEN_TO_ONE), 3, NoiseModel(1e-3))
    a = sample(fault_table(circ), 2000, seed=77, p_in=0.01)
    b = sample(fault_table(circ), 2000, seed=77, p_in=0.01)
    identical = np.array_equal(a.sigs, b.sigs)
    cfg = ExperimentConfig(protocol=SEVEN_TO_ONE, d=3, p_circuit=1e-3,
                           p_in=0.01, shots=2000, seed=9)
    s1, s2 = run_distillation(cfg), run_distillation(cfg)
    identical &= (s1.accepted, s1.errors) == (s2.accepted, s2.errors)
    slowest = max(st.seconds for st in circuit_noise_runs.values())
    ok = identical and slowest < 300.0
    report(10, ok, f"byte-identical: {identical}; "
                   f"slowest 1e5-shot run {slowest:.1f}s")
