"""Command-line interface tests: option resolution, outputs, exit codes."""
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import msdsim
from msdsim import cli
from msdsim.cli import (EXIT_CONFIG, EXIT_OK, ConfigError, main,
                        read_config_file)
from msdsim.harness import ExperimentConfig, result_row, run_memory_baseline
from msdsim.protocols import SEVEN_TO_ONE


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of `msdsim argv`; a flag the command does
    not take ends in argparse's SystemExit, whose code is the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    def test_parse(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("# sweep\nprotocol = 15to1\np-in = 0.05 0.1\nshots=123\n")
        opts = read_config_file(str(f))
        assert opts == {"protocol": "15to1", "p_in": "0.05 0.1", "shots": "123"}

    def test_bad_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("shots 123\n")
        with pytest.raises(ConfigError):
            read_config_file(str(f))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            read_config_file("/nonexistent/path.cfg")

    def test_flags_override_config(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("protocol=15to1\np_in=0.5\n")
        code, out, _ = run_cli(capsys, "analytic", "--config", str(f),
                               "--p-in", "0.01")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["protocol"] == "FifteenToOne"   # from config
        assert float(row["p_in"]) == 0.01          # flag wins

    def test_defaults_resolve_to_one_run(self, monkeypatch):
        """With no option given, each run command resolves to 7-to-1 at
        d=3, p_circuit 1e-3, seed 0 and 5 memory rounds, at its
        own shot count and p_in (0.01; 0 where the command reads none)."""
        got = []
        for command, shots, p_in in (("distill", 20_000, 0.01), ("memory", 20_000, 0.0),
                                     ("subcircuit", 20_000, 0.0),
                                     ("logical", 100_000, 0.01)):
            monkeypatch.setitem(cli._COMMANDS, command, (
                lambda opts: got.append(opts["configs"]) or EXIT_OK,
                *cli._COMMANDS[command][1:]))
            assert main([command]) == EXIT_OK
            assert got.pop() == [ExperimentConfig(
                protocol=SEVEN_TO_ONE, d=3, p_circuit=1e-3, p_in=p_in, shots=shots,
                seed=0, rounds=5)]


class TestExitCodes:
    def test_bad_protocol(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--protocol", "9to1")
        assert code == EXIT_CONFIG and "unknown protocol" in err

    def test_bad_config_value(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("shots=many\n")
        code, _, err = run_cli(capsys, "analytic", "--config", str(f))
        assert code == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text("volume=9\n")
        code, _, _ = run_cli(capsys, "analytic", "--config", str(f))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [("--shots", "5", "cost"), ("--d", "3", "cost"),
                                      ("--format", "json", "analytic")])
    def test_flag_before_the_subcommand(self, capsys, argv):
        """A flag given before the subcommand is named in a top-level usage
        error that says options go after the subcommand; nothing runs."""
        code, out, err = run_cli(capsys, *argv)
        flag, command = argv[0], argv[2]
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith("usage: msdsim [-h]")
        assert err.endswith(f"msdsim: error: option {flag} comes before the subcommand: "
                            f"options go after it, as in: msdsim {command} {flag} ...\n")

    @pytest.mark.parametrize("argv", [("logical", "--p-in", "1.5", "--shots", "10"),
                                      ("logical", "--p-in", "-0.1", "--shots", "10"),
                                      ("distill", "--p-circuit", "2", "--shots", "10"),
                                      ("subcircuit", "--d", "4", "--shots", "10"),
                                      ("memory", "--rounds", "0", "--shots", "10"),
                                      ("analytic", "--p-in", "1.5"),
                                      ("cost", "--d", "4"),
                                      ("distill", "--seed", "-1", "--shots", "10")])
    def test_out_of_range_values(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG and out == "" and err.startswith("error:")

    def test_empty_p_in_list(self, tmp_path, capsys):
        """A config file's `p_in =` with no value would give a header-only
        table; it is a bad configuration instead."""
        f = tmp_path / "run.cfg"
        f.write_text("p_in =\n")
        for argv in (["analytic"], ["distill", "--shots", "10"]):
            code, out, err = run_cli(capsys, *argv, "--config", str(f))
            assert code == EXIT_CONFIG and out == "" and "p_in" in err

    @pytest.mark.parametrize("command", ["oracle", "cost"])
    def test_csv_only_commands_reject_json(self, tmp_path, capsys, command):
        """The oracle and cost tables have no JSON form, so these commands
        take no format: asking for one, by flag or config file, is a bad
        configuration, not CSV output."""
        code, out, err = run_cli(capsys, command, "--format", "json")
        assert code == EXIT_CONFIG and out == "" and "json" in err
        f = tmp_path / "run.cfg"
        f.write_text("format=json\n")
        code, out, _ = run_cli(capsys, command, "--config", str(f))
        assert code == EXIT_CONFIG and out == ""

    def test_oracle_consistency_passes(self, capsys, tmp_path):
        out_file = tmp_path / "table.csv"
        code, _, _ = run_cli(capsys, "oracle", "--p-in", "0.1",
                             "--out", str(out_file))
        assert code == EXIT_OK
        lines = out_file.read_text().splitlines()
        assert lines[0] == "pattern,accepted,output_error"
        assert len(lines) == 129


class TestOutputs:
    def test_analytic_values(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--protocol", "7to1",
                               "--p-in", "0.01")
        assert code == EXIT_OK
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["p_out"]) == pytest.approx(7.214219e-06, rel=1e-4)
        assert float(row["discard_ratio"]) == pytest.approx(0.0679, abs=2e-4)

    def test_logical_json(self, capsys):
        code, out, _ = run_cli(capsys, "logical", "--p-in", "0.2",
                               "--shots", "2000", "--seed", "3",
                               "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)
        assert row["experiment"] == "logical" and row["shots"] == 2000
        assert (row["d"], row["p_circuit"]) == (0, 0.0)   # no code, no circuit noise

    def test_memory_row_has_no_protocol(self, capsys):
        """`memory` takes no protocol and prints none; every other field is
        the one pinned while its rows printed the config's default
        protocol."""
        code, out, _ = run_cli(capsys, "memory", "--shots", "400", "--seed", "2",
                               "--p-circuit", "0.01", "--rounds", "2", "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)
        row.pop("seconds")
        assert row == {
            "experiment": "memory", "protocol": "", "d": 3, "p_circuit": 0.01,
            "p_in": 0.0, "shots": 400, "accepted": 400, "errors": 36, "p_accept": 1.0,
            "p_out": 0.09, "ci_lo": 0.065716913, "ci_hi": 0.1220834523,
            "discard_ratio": 0.0, "seed": 2}

    def test_cost_table(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--protocol", "15to1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "protocol,d,qubit_cycles"
        assert lines[1] == "FifteenToOne,3,999"

    def test_cost_given_d_prints_one_row(self, capsys, tmp_path):
        """A given d prints its row alone, also when it is the default d."""
        code, out, _ = run_cli(capsys, "cost", "--d", "3")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["protocol,d,qubit_cycles", "SevenToOne,3,423"]
        f = tmp_path / "run.cfg"
        f.write_text("d=3\n")
        code, out, _ = run_cli(capsys, "cost", "--config", str(f))
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["protocol,d,qubit_cycles", "SevenToOne,3,423"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "res.csv"
        code, out, _ = run_cli(capsys, "analytic", "--p-in", "0.1",
                               "--out", str(path))
        assert code == EXIT_OK and out == ""
        assert path.read_text().startswith("experiment,")

    @pytest.mark.parametrize("command", ["analytic", "distill"])
    def test_unwritable_out_fails_before_any_shot(self, capsys, tmp_path, monkeypatch, command):
        def no_shots(cfg):
            raise AssertionError("a shot was sampled")
        monkeypatch.setattr(msdsim.harness, "run_distillation", no_shots)
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, command, "--out", str(path))
        assert code == EXIT_CONFIG and out == ""
        assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1
        assert not path.parent.exists()

    @pytest.mark.parametrize("protocol,rounds,other", [("7to1", 5, 6), ("15to1", 6, 5)])
    def test_subcircuit_baseline_runs_the_blocks_rounds(self, capsys, monkeypatch,
                                                        protocol, rounds, other):
        """The memory baseline runs as many rounds as the CNOT block: 5 for
        7-to-1, 6 for 15-to-1.  The block itself is stubbed out here."""
        monkeypatch.setattr(msdsim.harness, "run_subcircuit", lambda cfg: {})
        code, out, _ = run_cli(capsys, "subcircuit", "--protocol", protocol,
                               "--p-circuit", "0.01", "--shots", "400", "--seed", "2",
                               "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)
        cfg = ExperimentConfig(protocol=cli._protocol(protocol), p_circuit=0.01,
                               shots=400, seed=2)

        def baseline(r):
            want = result_row("memory-baseline", cfg,
                              run_memory_baseline(replace(cfg, rounds=r)))
            return {k: v for k, v in want.items() if k != "seconds"}

        row.pop("seconds")
        assert row == baseline(rounds)
        assert row != baseline(other)


# The options each subcommand reads, as the README lists them; every
# subcommand also takes --config and --out.
READS = {
    "analytic": {"protocol", "p_in", "format"},
    "oracle": {"protocol", "p_in"},
    "logical": {"protocol", "p_in", "shots", "seed", "format"},
    "distill": {"protocol", "d", "p_circuit", "p_in", "shots", "seed", "format"},
    "memory": {"d", "p_circuit", "shots", "seed", "rounds", "format"},
    "subcircuit": {"protocol", "d", "p_circuit", "shots", "seed", "format"},
    "cost": {"protocol", "d"},
}
# A valid value per option; config and out name files in the test's tmp_path.
# No subcommand takes max_iters: decoding has no sweep cap.
VALUES = {"config": "run.cfg", "out": "res.csv", "protocol": "15to1", "d": "5",
          "p_circuit": "0.002", "p_in": "0.1", "shots": "10", "seed": "1",
          "max_iters": "2", "rounds": "2", "format": "json"}
PAIRS = [(command, option) for command in READS for option in VALUES]


class TestOptionTable:
    @pytest.mark.parametrize("command,option", PAIRS)
    def test_option_pair(self, tmp_path, capsys, monkeypatch, command, option):
        """A (subcommand, option) pair in the table parses, by flag and by
        config key, to the same value; any other exits 2 before a shot is
        sampled, by flag (the subcommand's own usage error) and by config
        key."""
        def no_shots(*args, **kwargs):
            raise AssertionError("a shot was sampled")
        monkeypatch.setattr(msdsim.harness, "sample", no_shots)
        monkeypatch.setattr(msdsim.harness, "sample_logical_shots", no_shots)
        value = VALUES[option]
        if option in ("config", "out"):
            value = str(tmp_path / value)
        (tmp_path / "run.cfg").write_text("")
        argv = [command, "--" + option.replace("_", "-"), value]
        key_file = tmp_path / "key.cfg"
        key_file.write_text(f"{option} = {value}\n")
        if option in READS[command] | {"config", "out"}:
            opts = cli.resolve_options(cli._parse_args(argv))
            if option != "config":
                assert opts[option] is not None
                from_key = cli.resolve_options(cli._parse_args(
                    [command, "--config", str(key_file)]))
                assert from_key[option] == opts[option]
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: msdsim {command} ")
        assert err.endswith(f"msdsim {command}: error: unrecognized arguments: "
                            f"{' '.join(argv[1:])}\n")
        code, out, err = run_cli(capsys, command, "--config", str(key_file))
        assert code == EXIT_CONFIG and out == ""
        assert err == f"error: {command} takes no option {option!r}\n"


class TestSweeps:
    def test_distill_sweep_equals_single_points(self, capsys):
        """The points of a multi-p_in sweep share one pipeline, and each
        run's shots are drawn at its own p_in: the sweep's rows equal the
        single-point runs row for row."""
        def rows(*p_ins):
            argv = ["distill", "--shots", "1000", "--seed", "1", "--format", "json"]
            for p in p_ins:
                argv += ["--p-in", p]
            code, out, _ = run_cli(capsys, *argv)
            assert code == EXIT_OK
            return [{k: v for k, v in r.items() if k != "seconds"}
                    for r in json.loads(out)]

        sweep = rows("0.3", "0.01")
        assert sweep == rows("0.3") + rows("0.01")
        assert sweep[0]["accepted"] != sweep[1]["accepted"]

    def test_distill_sweep_builds_one_pipeline(self, capsys, monkeypatch):
        builds = []
        build = msdsim.harness.DecodingPipeline.build

        def spy(circuit):
            builds.append(circuit)
            return build(circuit)

        monkeypatch.setattr(msdsim.harness.DecodingPipeline, "build", spy)
        code, out, _ = run_cli(capsys, "distill", "--shots", "200", "--p-in", "0.3",
                               "--p-in", "0.01")
        assert code == EXIT_OK and len(out.splitlines()) == 3
        assert len(builds) == 1


class TestPinnedOutputs:
    """Stdout recorded from the tableau-backed oracle before the oracle table
    was derived from the protocols' syndrome maps; it must not change.  The
    logical runs' wall-clock `seconds` field is masked."""

    ANALYTIC = {
        "7to1": (
            "experiment,protocol,d,p_circuit,p_in,shots,accepted,errors,p_accept,p_out,ci_lo,ci_hi,discard_ratio,seed,seconds\r\n"
            "analytic,SevenToOne,0,0.0,0.001,0,0,0,0.993020972,7e-09,0.0,0.0,0.006979028,0,0.0\r\n"
            "analytic,SevenToOne,0,0.0,0.01,0,0,0,0.93207214,7.2142e-06,0.0,0.0,0.06792786,0,0.0\r\n"
            "analytic,SevenToOne,0,0.0,0.1,0,0,0,0.4834,0.0095010343,0.0,0.0,0.5166,0,0.0\r\n"
            "analytic,SevenToOne,0,0.0,0.3,0,0,0,0.1474,0.3093459973,0.0,0.0,0.8526,0,0.0\r\n"),
        "15to1": (
            "experiment,protocol,d,p_circuit,p_in,shots,accepted,errors,p_accept,p_out,ci_lo,ci_hi,discard_ratio,seed,seconds\r\n"
            "analytic,FifteenToOne,0,0.0,0.001,0,0,0,0.985104581,3.51e-08,0.0,0.0,0.014895419,0,0.0\r\n"
            "analytic,FifteenToOne,0,0.0,0.01,0,0,0,0.8600903337,3.60877e-05,0.0,0.0,0.1399096663,0,0.0\r\n"
            "analytic,FifteenToOne,0,0.0,0.1,0,0,0,0.2197864,0.04772674,0.0,0.0,0.7802136,0,0.0\r\n"
            "analytic,FifteenToOne,0,0.0,0.3,0,0,0,0.0631144,0.4878310884,0.0,0.0,0.9368856,0,0.0\r\n"),
    }
    ORACLE_SHA256 = {
        "7to1": "11eca7751becbbd5cf79619093c84a02286d70b8dace47d5bb6af3a4b5840db9",
        "15to1": "ad1abce1e077b803b4d3e6c8fad291fc1393795b8a5163814ef6f7a3cf294a9f",
    }
    LOGICAL_SHA256 = {
        "7to1": "e8eef317f52d8c77da3bdfc48d547e87f1717210b50c9d74d23c1a947eca455c",
        "15to1": "880ead3bffd3d712863f20925dfca5ffa6ad53151bcb69e99451f349ce4fac52",
    }
    LOGICAL_COUNTS = {"7to1": (9571, 96), "15to1": (4349, 180)}

    @pytest.mark.parametrize("protocol", ["7to1", "15to1"])
    def test_oracle_table(self, capsys, protocol):
        code, out, _ = run_cli(capsys, "oracle", "--protocol", protocol)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.ORACLE_SHA256[protocol]

    @pytest.mark.parametrize("protocol", ["7to1", "15to1"])
    def test_analytic_rows(self, capsys, protocol):
        code, out, _ = run_cli(capsys, "analytic", "--protocol", protocol,
                               "--p-in", "0.001", "--p-in", "0.01",
                               "--p-in", "0.1", "--p-in", "0.3")
        assert code == EXIT_OK
        assert out == self.ANALYTIC[protocol]

    @pytest.mark.parametrize("protocol", ["7to1", "15to1"])
    def test_logical_json(self, capsys, protocol):
        code, out, _ = run_cli(capsys, "logical", "--protocol", protocol,
                               "--p-in", "0.1", "--shots", "20000", "--seed", "3",
                               "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)
        assert (row["accepted"], row["errors"]) == self.LOGICAL_COUNTS[protocol]
        masked = re.sub(r'"seconds": [0-9.e+-]+', '"seconds": null', out)
        assert hashlib.sha256(masked.encode()).hexdigest() == self.LOGICAL_SHA256[protocol]


def test_python_m_msdsim_runs_the_cli():
    """`python -m msdsim` from a source tree runs the command line."""
    src = str(Path(msdsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "msdsim", "cost", "--protocol", "7to1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == ("protocol,d,qubit_cycles\nSevenToOne,3,423\nSevenToOne,5,1175\n"
                           "SevenToOne,7,2303\nSevenToOne,9,3807\n")


def test_distill_run_imports_neither_scipy_nor_networkx():
    """A fresh process that imports the CLI and runs 200 shots of 7-to-1 at
    d=3 loads neither scipy nor networkx: matching distances need numpy only,
    and networkx is imported only for a cluster above the subset-DP limit."""
    code = (
        "import sys\n"
        "import msdsim.cli\n"
        "from msdsim import harness\n"
        "cfg = harness.ExperimentConfig(protocol=harness.SEVEN_TO_ONE, d=3, p_circuit=1e-3,"
        " p_in=0.01, shots=200, seed=0)\n"
        "assert harness.run_distillation(cfg).shots == 200\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('scipy', 'networkx')))\n")
    src = str(Path(msdsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
