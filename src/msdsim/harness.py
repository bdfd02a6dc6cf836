"""Monte Carlo experiment drivers: distillation, memory, and CNOT-block runs.

Each driver builds its circuit's decoding pipeline once, then merges, in
chunk order, the tallies of `decode_chunk`: it samples a chunk, reads each
shot's signature as one int (`ShotBatch.unpack`) and hands the ints to
`tally`, the one loop over shots, which decodes each shot's detector bits
and scores it with `predict_outcome`, the one reader of where the
observable and check columns sit, so memory does not grow with the shot
count.
Counts carry Wilson-score confidence intervals.  Results serialize to CSV or
JSON rows with the full parameter set and seed, so any row can be reproduced
exactly.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .builders import (NoiseModel, build_cnot_subcircuit_experiment,
                       build_distillation_circuit, build_memory_circuit)
from .circuit import Circuit
from .decoder import DecodeResult, IterativeDecoder
from .dem import enumerate_error_mechanisms
from .protocols import (FIFTEEN_TO_ONE, SEVEN_TO_ONE, build_protocol,
                        sample_logical_shots)
from .sampler import (CHUNK, FaultTable, fault_table, sample,
                      validate_annotations)


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if n == 0:
        return (0.0, 1.0)
    ph = k / n
    denom = 1 + z * z / n
    centre = (ph + z * z / (2 * n)) / denom
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str = SEVEN_TO_ONE
    d: int = 3
    p_circuit: float = 1e-3
    p_in: float = 0.0
    shots: int = 10_000
    seed: int = 0
    rounds: int = 5          # memory baseline only

    def __post_init__(self):
        if self.protocol not in (SEVEN_TO_ONE, FIFTEEN_TO_ONE):
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if self.d < 3 or self.d % 2 == 0:
            raise ValueError("d must be odd and >= 3")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("p_circuit", "p_in"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")

    def noise(self) -> NoiseModel:
        return NoiseModel(self.p_circuit)


@dataclass
class ExperimentStats:
    """Accumulated counts with derived rates and 95% intervals; `+=` merges."""
    shots: int = 0
    accepted: int = 0
    errors: int = 0          # output errors among accepted shots
    seconds: float = 0.0     # the driver's wall time, which `+=` leaves alone

    def __iadd__(self, other: "ExperimentStats") -> "ExperimentStats":
        self.shots += other.shots
        self.accepted += other.accepted
        self.errors += other.errors
        return self

    @property
    def iteration_hist(self) -> dict[int, int]:
        """Shots per number of decoding passes: every shot is decoded in one
        pass.  Kept under this name for the benchmark (`perfbench`)."""
        return {1: self.shots}

    @property
    def p_accept(self) -> float:
        return self.accepted / self.shots if self.shots else 0.0

    @property
    def discard_ratio(self) -> float:
        return 1.0 - self.p_accept

    @property
    def p_out(self) -> float:
        return self.errors / self.accepted if self.accepted else 0.0

    def p_out_interval(self) -> tuple[float, float]:
        return wilson_interval(self.errors, self.accepted)


@dataclass
class DecodingPipeline:
    """Fault table and decoder for one circuit: `build` builds the circuit's
    fault table (the one backward sweep), checks the annotations exactly off
    its random-parity mask, merges the error mechanisms from it and builds
    the matching graphs.  Every later stage reads the table, not the circuit:
    the merge reads its rows, and every shot is sampled from them and scored
    by the annotations the table carries, so no pipeline keeps the circuit.

    A pipeline is valid only for the `p_circuit` it was built with, but the
    sampler draws the injections at each run's `p_in`, so one pipeline serves
    a whole `p_in` sweep."""
    table: FaultTable
    decoder: IterativeDecoder

    @classmethod
    def build(cls, circuit: Circuit) -> "DecodingPipeline":
        table = fault_table(circuit)
        validate_annotations(table)
        mechanisms = enumerate_error_mechanisms(table)
        return cls(table, IterativeDecoder(table.detectors, mechanisms))


def predict_outcome(result: DecodeResult, sig: int, nd: int, no: int
                    ) -> tuple[bool, int]:
    """(accepted, wrong) of one shot's signature `sig` and its decoding,
    in a layout of `nd` detectors, then `no` observables, then the checks:
    whether the correction cancels every check the shot flipped, and the int
    whose bit i is set when observable i was decoded wrong.  A circuit
    without checks accepts every shot."""
    left = (sig ^ result.flips) >> nd
    return not left >> no, left & (1 << no) - 1


def tally(pipeline: DecodingPipeline, sigs: list[int]) -> list[ExperimentStats]:
    """Each signature int of `sigs` decoded and scored by `predict_outcome`:
    one tally per observable, whose errors are the accepted shots that
    observable was decoded wrong on.  Signatures are XOR-linear, so a sampled
    chunk, table rows XORed by hand and an enumeration of faults are scored
    alike.  Every shot is decoded in one pass, so each tally's iteration
    histogram is `{1: len(sigs)}`."""
    table, dec = pipeline.table, pipeline.decoder
    # A signature's bits run detectors (in slot order), observables, checks.
    nd, no = len(table.detectors), len(table.observables)
    det_mask = (1 << nd) - 1
    accepted = 0
    wrong: dict[int, int] = {}   # accepted shots per nonzero wrong-observable int
    for sig in sigs:
        res = dec.decode_shot(dec.syndrome_masks(sig & det_mask))
        ok, flips = predict_outcome(res, sig, nd, no)
        if ok:
            accepted += 1
            if flips:
                wrong[flips] = wrong.get(flips, 0) + 1
    return [ExperimentStats(len(sigs), accepted, sum(n for w, n in wrong.items() if w >> o & 1))
            for o in range(no)]


def decode_chunk(pipeline: DecodingPipeline, config: ExperimentConfig,
                 k: int) -> list[ExperimentStats]:
    """`sample`'s chunk k of `config`'s run, scored by `tally`.  No outcome
    depends on the decoder's caches, so chunks decode apart and merge in
    order."""
    shots = min(CHUNK, config.shots - k * CHUNK)
    return tally(pipeline, sample(pipeline.table, shots, config.seed, k, config.p_in).unpack())


def _merged_chunks(pipeline: DecodingPipeline, config: ExperimentConfig,
                   t0: float) -> list[ExperimentStats]:
    """Every chunk's tallies merged in chunk order, timed from `t0`."""
    total = decode_chunk(pipeline, config, 0)
    for k in range(1, -(-config.shots // CHUNK)):
        for st, chunk in zip(total, decode_chunk(pipeline, config, k)):
            st += chunk
    dt = time.perf_counter() - t0
    for st in total:
        st.seconds = dt
    return total


def distillation_pipeline(config: ExperimentConfig) -> DecodingPipeline:
    """The pipeline of `config`'s distillation circuit, for any `p_in`."""
    return DecodingPipeline.build(build_distillation_circuit(
        build_protocol(config.protocol), config.d, config.noise()))


def run_distillation(config: ExperimentConfig,
                     pipeline: DecodingPipeline | None = None) -> ExperimentStats:
    """Full surface-code distillation Monte Carlo at one parameter point."""
    t0 = time.perf_counter()
    return _merged_chunks(pipeline or distillation_pipeline(config), config, t0)[0]


def run_memory_baseline(config: ExperimentConfig) -> ExperimentStats:
    """Single-patch |0> memory logical error rate (every shot "accepted")."""
    t0 = time.perf_counter()
    return _merged_chunks(DecodingPipeline.build(build_memory_circuit(
        config.d, config.rounds, config.noise())), config, t0)[0]


def run_subcircuit(config: ExperimentConfig) -> dict[int, ExperimentStats]:
    """Per-patch Pauli-web failure rates of the CNOT block.

    Runs both benchmark bases; each patch's observable lives in exactly one of
    the two runs, so the result maps every patch to one ExperimentStats."""
    spec = build_protocol(config.protocol)
    out: dict[int, ExperimentStats] = {}
    for basis in ("Z", "X"):
        t0 = time.perf_counter()
        pipeline = DecodingPipeline.build(
            build_cnot_subcircuit_experiment(spec, config.d, config.noise(), basis))
        out.update(zip([ob.id for ob in pipeline.table.observables],
                       _merged_chunks(pipeline, config, t0)))
    return out


def run_logical(config: ExperimentConfig) -> ExperimentStats:
    """Logical-level (noise-free code) protocol Monte Carlo."""
    t0 = time.perf_counter()
    accepted, errors = sample_logical_shots(config.protocol, config.p_in, config.shots,
                                            np.random.default_rng(config.seed))
    stats = ExperimentStats(shots=config.shots, accepted=accepted, errors=errors)
    stats.seconds = time.perf_counter() - t0
    return stats


def qubit_cycles(kind: str, d: int) -> int:
    """Spacetime cost of one distillation run in data-qubit-rounds."""
    spec = build_protocol(kind)
    # Every data patch lives through every barrier round; each resource, one.
    return (spec.num_data * spec.num_barriers + spec.num_resources) * d * d


RESULT_FIELDS = ("experiment", "protocol", "d", "p_circuit", "p_in", "shots",
                 "accepted", "errors", "p_accept", "p_out", "ci_lo", "ci_hi",
                 "discard_ratio", "seed", "seconds")


def result_row(experiment: str, config: ExperimentConfig,
               stats: ExperimentStats) -> dict:
    lo, hi = stats.p_out_interval()
    return {
        "experiment": experiment,
        "protocol": config.protocol,
        "d": config.d,
        "p_circuit": config.p_circuit,
        "p_in": config.p_in,
        "shots": stats.shots,
        "accepted": stats.accepted,
        "errors": stats.errors,
        "p_accept": round(stats.p_accept, 10),
        "p_out": round(stats.p_out, 10),
        "ci_lo": round(lo, 10),
        "ci_hi": round(hi, 10),
        "discard_ratio": round(stats.discard_ratio, 10),
        "seed": config.seed,
        "seconds": round(stats.seconds, 3),
    }


def emit_results(rows: list[dict], fmt: str = "csv") -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=RESULT_FIELDS)
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()
