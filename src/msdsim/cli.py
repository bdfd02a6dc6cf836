"""Command-line front end for the distillation simulation stack.

Subcommands map one-to-one onto the experiment drivers in `harness` plus the
logical-level analytic/oracle utilities.  All numeric options can come from a
plain key=value config file (--config); explicit flags win.  Exit codes:
0 success, 2 bad configuration, 3 oracle/acceptance mismatch.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .protocols import (FIFTEEN_TO_ONE, SEVEN_TO_ONE, analytic_pout,
                        build_protocol, discard_ratio, exhaustive_oracle)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ORACLE = 3

_PROTOCOL_ALIASES = {
    "7to1": SEVEN_TO_ONE, "7": SEVEN_TO_ONE, SEVEN_TO_ONE.lower(): SEVEN_TO_ONE,
    "15to1": FIFTEEN_TO_ONE, "15": FIFTEEN_TO_ONE,
    FIFTEEN_TO_ONE.lower(): FIFTEEN_TO_ONE,
}


class ConfigError(Exception):
    pass


def _protocol(name: str) -> str:
    key = name.strip().lower()
    if key not in _PROTOCOL_ALIASES:
        raise ConfigError(f"unknown protocol {name!r} (use 7to1 or 15to1)")
    return _PROTOCOL_ALIASES[key]


def read_config_file(path: str) -> dict[str, str]:
    """Plain key=value lines; '#' starts a comment, blank lines ignored."""
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
                k, v = line.split("=", 1)
                out[k.strip().replace("-", "_")] = v.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="msdsim",
        description="Magic-state distillation simulation and decoding toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file (flags override)")
        p.add_argument("--protocol", default=None, help="7to1 or 15to1")
        p.add_argument("--d", type=int, default=None, help="code distance")
        p.add_argument("--p-circuit", type=float, default=None,
                       help="physical circuit noise strength")
        p.add_argument("--p-in", type=float, action="append", default=None,
                       help="injected input error rate (repeatable for sweeps)")
        p.add_argument("--shots", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-iters", type=int, default=None,
                       help="global decoding iteration cap")
        p.add_argument("--rounds", type=int, default=None,
                       help="memory experiment round count")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        return p

    common(sub.add_parser("analytic", help="closed-form output error tables"))
    common(sub.add_parser("oracle", help="exhaustive pattern table and formula check"))
    common(sub.add_parser("logical", help="logical-level protocol Monte Carlo"))
    common(sub.add_parser("distill", help="surface-code distillation Monte Carlo"))
    common(sub.add_parser("memory", help="single-patch memory baseline"))
    common(sub.add_parser("subcircuit", help="CNOT-block Pauli-web benchmark"))
    common(sub.add_parser("cost", help="qubit-cycle spacetime cost table"))
    return ap


_DEFAULTS = {"protocol": "7to1", "d": 3, "p_circuit": 1e-3, "p_in": [0.01],
             "shots": None, "seed": 0, "max_iters": 3, "rounds": 5,
             "format": "csv"}

_CASTS = {"d": int, "shots": int, "seed": int, "max_iters": int, "rounds": int,
          "p_circuit": float}


def resolve_options(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags.  `opts["given"]` names the
    options a config file or a flag set."""
    opts = dict(_DEFAULTS)
    opts["shots"] = args.shots_default
    given = set()
    if args.config:
        for k, v in read_config_file(args.config).items():
            given.add(k)
            if k == "p_in":
                try:
                    opts["p_in"] = [float(x) for x in v.replace(",", " ").split()]
                except ValueError as e:
                    raise ConfigError(f"bad p_in value {v!r}") from e
            elif k in _CASTS:
                try:
                    opts[k] = _CASTS[k](v)
                except ValueError as e:
                    raise ConfigError(f"bad value for {k}: {v!r}") from e
            elif k in ("protocol", "format", "out"):
                opts[k] = v
            else:
                raise ConfigError(f"unknown config key {k!r}")
    for k in ("protocol", "d", "p_circuit", "shots", "seed", "max_iters",
              "rounds", "out", "format"):
        v = getattr(args, k, None)
        if v is not None:
            opts[k] = v
            given.add(k)
    if args.p_in is not None:
        opts["p_in"] = list(args.p_in)
        given.add("p_in")
    opts["given"] = given
    opts["protocol"] = _protocol(str(opts["protocol"]))
    formats = ("csv",) if args.command in ("oracle", "cost") else ("csv", "json")
    if opts["format"] not in formats:   # oracle and cost tables are not result rows
        raise ConfigError(f"{args.command} cannot write format {opts['format']!r}")
    if not opts["p_in"]:
        raise ConfigError("p_in needs at least one value")
    try:    # one config per p_in: range checks for every command
        opts["configs"] = [harness.ExperimentConfig(
            protocol=opts["protocol"], d=opts["d"], p_circuit=opts["p_circuit"],
            p_in=p, shots=opts["shots"], seed=opts["seed"],
            max_iters=opts["max_iters"], rounds=opts["rounds"]) for p in opts["p_in"]]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if opts.get("out"):
        _check_out(opts["out"])
    return opts


def _check_out(path: str) -> None:
    """Raise ConfigError unless `path` can be opened for writing, so a bad
    --out fails before any shot is sampled.  An existing file is left as it
    is; a missing one is created empty."""
    try:
        with open(path, "a"):
            pass
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e


def _write(opts: dict, text: str) -> None:
    if opts.get("out"):
        with open(opts["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analytic(opts: dict) -> int:
    rows = []
    spec = build_protocol(opts["protocol"])
    for p in opts["p_in"]:
        discard = discard_ratio(spec, p)
        rows.append({
            "experiment": "analytic", "protocol": opts["protocol"], "d": 0,
            "p_circuit": 0.0, "p_in": p, "shots": 0, "accepted": 0, "errors": 0,
            "p_accept": round(1 - discard, 10),
            "p_out": round(analytic_pout(opts["protocol"], p), 10),
            "ci_lo": 0.0, "ci_hi": 0.0,
            "discard_ratio": round(discard, 10),
            "seed": 0, "seconds": 0.0,
        })
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_oracle(opts: dict) -> int:
    table = exhaustive_oracle(opts["protocol"])
    _write(opts, table.to_csv())
    for p in opts["p_in"]:
        want = analytic_pout(opts["protocol"], p)
        got = table.p_out(p)
        if abs(want - got) > 1e-9:
            sys.stderr.write(
                f"oracle mismatch at p_in={p}: table {got!r} vs formula {want!r}\n")
            return EXIT_ORACLE
    return EXIT_OK


def cmd_logical(opts: dict) -> int:
    rows = [harness.result_row("logical", cfg, harness.run_logical(cfg))
            for cfg in opts["configs"]]
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_distill(opts: dict) -> int:
    """One pipeline, built once, serves every p_in."""
    pipeline = harness.distillation_pipeline(opts["configs"][0])
    rows = [harness.result_row("distill", cfg, harness.run_distillation(cfg, pipeline))
            for cfg in opts["configs"]]
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_memory(opts: dict) -> int:
    cfg = replace(opts["configs"][0], p_in=0.0)
    rows = [harness.result_row("memory", cfg, harness.run_memory_baseline(cfg))]
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_subcircuit(opts: dict) -> int:
    cfg = replace(opts["configs"][0], p_in=0.0)
    per_patch = harness.run_subcircuit(cfg)
    baseline = harness.run_memory_baseline(cfg)
    rows = [harness.result_row("memory-baseline", cfg, baseline)]
    for patch in sorted(per_patch):
        row = harness.result_row(f"subcircuit-patch-{patch}", cfg, per_patch[patch])
        rows.append(row)
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_cost(opts: dict) -> int:
    lines = ["protocol,d,qubit_cycles"]
    for d in (opts["d"],) if "d" in opts["given"] else (3, 5, 7, 9):
        lines.append(f"{opts['protocol']},{d},{harness.qubit_cycles(opts['protocol'], d)}")
    _write(opts, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "analytic": (cmd_analytic, 0),
    "oracle": (cmd_oracle, 0),
    "logical": (cmd_logical, 100_000),
    "distill": (cmd_distill, 20_000),
    "memory": (cmd_memory, 20_000),
    "subcircuit": (cmd_subcircuit, 20_000),
    "cost": (cmd_cost, 0),
}


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    fn, shots_default = _COMMANDS[args.command]
    args.shots_default = shots_default or 1
    try:
        opts = resolve_options(args)
        return fn(opts)
    except ConfigError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
