"""Command-line front end for the distillation simulation stack.

Subcommands map one-to-one onto the experiment drivers in `harness` plus the
logical-level analytic/oracle utilities.  Each subcommand takes the options
it reads (`_COMMANDS`) and --config and --out, no other.  The same options
can come from a plain key=value config file (--config); explicit flags win.
Exit codes: 0 success, 2 bad configuration (an option the subcommand does
not take, as a flag or a config key, included), 3 oracle/acceptance mismatch.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

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


# Every option: the argparse keywords of its flag.  A config-file key is an
# option's name, and its value is converted by the flag's `type` (an
# "append" option's value is a list split on commas and blanks).
_OPTIONS = {
    "config": {"help": "key=value config file (flags override)"},
    "out": {"help": "output path (default stdout)"},
    "protocol": {"type": _protocol, "help": "7to1 or 15to1"},
    "d": {"type": int, "help": "code distance"},
    "p_circuit": {"type": float, "help": "physical circuit noise strength"},
    "p_in": {"type": float, "action": "append",
             "help": "injected input error rate (repeatable for sweeps)"},
    "shots": {"type": int},
    "seed": {"type": int},
    "rounds": {"type": int, "help": "memory experiment round count"},
    "format": {"choices": ("csv", "json")},
}

_DEFAULTS = {"p_in": [0.01], "shots": 20_000, "format": "csv"}

_CONFIG_FIELDS = {f.name for f in fields(harness.ExperimentConfig)} - {"p_in"}


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


def _parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The subcommand and its flags.  A flag the subcommand does not take is
    that subcommand's usage error (SystemExit 2), naming the ones it takes;
    a flag before the subcommand is the top-level one, naming the flag."""
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(
        prog="msdsim",
        description="Magic-state distillation simulation and decoding toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, help_, reads) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for name in ("config", "out", *reads):
            p.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        flag = argv[0].split("=", 1)[0]
        command = next((a for a in argv if a in _COMMANDS), "COMMAND")
        ap.error(f"option {flag} comes before the subcommand: options go after it, "
                 f"as in: msdsim {command} {flag} ...")
    args, extra = ap.parse_known_args(argv)
    if extra:
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _config_value(name: str, text: str):
    """A config file's `text` for option `name`, converted as its flag's."""
    spec = _OPTIONS[name]
    many = spec.get("action") == "append"
    try:
        values = [spec.get("type", str)(w)
                  for w in (text.replace(",", " ").split() if many else [text])]
    except ValueError as e:
        raise ConfigError(f"bad value for {name}: {text!r}") from e
    choices = spec.get("choices")
    if choices and any(v not in choices for v in values):
        raise ConfigError(f"bad value for {name}: {text!r}")
    return values if many else values[0]


def resolve_options(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags, for the options the command
    reads; a config key it does not read is a bad configuration, as its
    flag is.  `opts["configs"]` holds one range-checked `ExperimentConfig`
    per p_in (one with p_in 0 for a command that reads none); an option the
    command does not read keeps the config's default."""
    reads = _COMMANDS[args.command][2]
    opts = {k: _DEFAULTS[k] for k in reads if k in _DEFAULTS}
    if args.command == "logical":   # no code to decode: shots are cheap
        opts["shots"] = 100_000
    if args.config:
        for k, v in read_config_file(args.config).items():
            if k not in reads and k != "out":
                raise ConfigError(f"{args.command} takes no option {k!r}")
            opts[k] = _config_value(k, v)
    opts.update((k, v) for k, v in vars(args).items()
                if v is not None and k not in ("command", "config"))
    if opts.get("p_in") == []:
        raise ConfigError("p_in needs at least one value")
    fixed = {k: v for k, v in opts.items() if k in _CONFIG_FIELDS}
    try:
        opts["configs"] = [harness.ExperimentConfig(**fixed, p_in=p)
                           for p in opts.get("p_in", [0.0])]
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
    spec = build_protocol(opts["configs"][0].protocol)
    for cfg in opts["configs"]:
        discard = discard_ratio(spec, cfg.p_in)
        # No code, no circuit noise and no shots: the rates are exact.
        rows.append({**harness.result_row("analytic", cfg, harness.ExperimentStats()),
                     "d": 0, "p_circuit": 0.0, "p_accept": round(1 - discard, 10),
                     "p_out": round(analytic_pout(cfg.protocol, cfg.p_in), 10),
                     "ci_hi": 0.0, "discard_ratio": round(discard, 10)})
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_oracle(opts: dict) -> int:
    table = exhaustive_oracle(opts["configs"][0].protocol)
    _write(opts, table.to_csv())
    for cfg in opts["configs"]:
        want = analytic_pout(cfg.protocol, cfg.p_in)
        got = table.p_out(cfg.p_in)
        if abs(want - got) > 1e-9:
            sys.stderr.write(
                f"oracle mismatch at p_in={cfg.p_in}: table {got!r} vs formula {want!r}\n")
            return EXIT_ORACLE
    return EXIT_OK


def cmd_logical(opts: dict) -> int:
    # The logical level has no code and no circuit noise.
    rows = [{**harness.result_row("logical", cfg, harness.run_logical(cfg)),
             "d": 0, "p_circuit": 0.0} for cfg in opts["configs"]]
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
    # A memory run has no protocol.
    cfg = opts["configs"][0]
    rows = [{**harness.result_row("memory", cfg, harness.run_memory_baseline(cfg)),
             "protocol": ""}]
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_subcircuit(opts: dict) -> int:
    """The CNOT block's patches against a memory baseline of as many rounds."""
    cfg = opts["configs"][0]
    per_patch = harness.run_subcircuit(cfg)
    base = replace(cfg, rounds=build_protocol(cfg.protocol).num_barriers)
    rows = [harness.result_row("memory-baseline", base, harness.run_memory_baseline(base))]
    for patch in sorted(per_patch):
        rows.append(harness.result_row(f"subcircuit-patch-{patch}", cfg, per_patch[patch]))
    _write(opts, harness.emit_results(rows, opts["format"]))
    return EXIT_OK


def cmd_cost(opts: dict) -> int:
    protocol = opts["configs"][0].protocol
    lines = ["protocol,d,qubit_cycles"]
    for d in (opts["d"],) if "d" in opts else (3, 5, 7, 9):
        lines.append(f"{protocol},{d},{harness.qubit_cycles(protocol, d)}")
    _write(opts, "\n".join(lines) + "\n")
    return EXIT_OK


# Per subcommand: its driver, its help line and the options it reads, which
# with --config and --out are the only ones it takes.
_COMMANDS = {
    "analytic": (cmd_analytic, "closed-form output error tables",
                 ("protocol", "p_in", "format")),
    "oracle": (cmd_oracle, "exhaustive pattern table and formula check",
               ("protocol", "p_in")),
    "logical": (cmd_logical, "logical-level protocol Monte Carlo",
                ("protocol", "p_in", "shots", "seed", "format")),
    "distill": (cmd_distill, "surface-code distillation Monte Carlo",
                ("protocol", "d", "p_circuit", "p_in", "shots", "seed", "format")),
    "memory": (cmd_memory, "single-patch memory baseline",
               ("d", "p_circuit", "shots", "seed", "rounds", "format")),
    "subcircuit": (cmd_subcircuit, "CNOT-block Pauli-web benchmark",
                   ("protocol", "d", "p_circuit", "shots", "seed", "format")),
    "cost": (cmd_cost, "qubit-cycle spacetime cost table", ("protocol", "d")),
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  A flag the subcommand does not take is its usage
    error (SystemExit 2); every other bad configuration returns 2."""
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command][0](resolve_options(args))
    except ConfigError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_CONFIG
